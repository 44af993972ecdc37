"""DET001 fixture: every statement here is a nondeterminism source."""

import os
import random
import time
import uuid
from datetime import datetime


def wall_clock() -> float:
    return time.time()


def perf() -> float:
    return time.perf_counter()


def timestamp() -> str:
    return datetime.now().isoformat()


def unseeded() -> float:
    return random.random()


def shuffled(items: list) -> list:
    random.shuffle(items)
    return items


def token() -> str:
    return uuid.uuid4().hex


def entropy() -> bytes:
    return os.urandom(8)


def ordered_from_set(values):
    return list({v for v in values})


def iterate_set():
    out = []
    for item in {3, 1, 2}:
        out.append(item)
    return out


def iterate_set_union(a, b):
    out = []
    for item in set(a) | set(b):
        out.append(item)
    return out
