"""DET001 — no nondeterminism sources in simulation code.

The simulator's core promise is bit-identical replay: same seed, same
event sequence, same results.  Anything that reads the wall clock, the
process entropy pool, or the *global* (seed-shared) RNG inside
``src/repro`` silently breaks that promise — as does materializing a set
into an ordered artifact, because set iteration order varies with hash
randomization across interpreter runs.

Allowed escapes:

- an explicit per-file allowlist (the sweep runner's wall-clock side
  channel, the perf harness) — wall time there is *reported*, never fed
  back into simulation decisions;
- seeded ``random.Random(seed)`` instances (the supported RNG idiom);
- ``sorted(...)`` over sets (ordering is then explicit);
- inline ``# repro: allow[DET001]: why`` for measurement side channels.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.core import Finding, ParsedModule, Rule

#: ``module.attr`` calls that read wall clock or entropy.
_BANNED_ATTR_CALLS: typing.Dict[typing.Tuple[str, str], str] = {
    ("time", "time"): "wall clock",
    ("time", "time_ns"): "wall clock",
    ("time", "perf_counter"): "wall clock",
    ("time", "perf_counter_ns"): "wall clock",
    ("time", "monotonic"): "wall clock",
    ("time", "monotonic_ns"): "wall clock",
    ("datetime", "now"): "wall clock",
    ("datetime", "utcnow"): "wall clock",
    ("datetime", "today"): "wall clock",
    ("date", "today"): "wall clock",
    ("uuid", "uuid1"): "entropy/clock",
    ("uuid", "uuid4"): "entropy",
    ("os", "urandom"): "entropy",
    ("secrets", "token_bytes"): "entropy",
    ("secrets", "token_hex"): "entropy",
}

#: Global-``random``-module functions (unseeded, interpreter-shared RNG).
#: ``random.Random(seed)`` instances are the supported idiom and pass.
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "getrandbits", "seed",
})

#: ``numpy.random`` module-level draw functions: they share the hidden
#: global ``RandomState`` exactly like the stdlib ``random`` module.  A
#: seeded ``np.random.Generator(np.random.PCG64(seed))`` (or
#: ``default_rng(seed)``) is the supported idiom.
_NUMPY_GLOBAL_FNS = frozenset({
    "random", "rand", "randn", "randint", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "uniform", "normal",
    "standard_normal", "exponential", "poisson", "binomial", "beta",
    "gamma", "zipf", "pareto", "bytes", "seed", "get_state", "set_state",
})

#: ``numpy.random`` constructors that are fine *seeded* but draw entropy
#: from the OS when called with no arguments.
_NUMPY_SEEDED_CTORS = frozenset({
    "default_rng", "Generator", "PCG64", "PCG64DXSM", "MT19937",
    "Philox", "SFC64", "RandomState", "SeedSequence",
})

#: Names ``numpy`` is commonly imported as.
_NUMPY_ALIASES = frozenset({"np", "numpy"})

#: Files allowed to read the wall clock (measurement side channels that
#: never feed back into virtual time).
ALLOWED_PATH_SUFFIXES = (
    "repro/sweep/runner.py",   # sweep wall-clock reporting side channel
    "perf/",                   # the kernel perf harness measures real time
)

#: Constructors that materialize their argument in iteration order.
_ORDERING_SINKS = frozenset({"list", "tuple"})


#: Binary operators that build a set when either operand is one.
_SET_ALGEBRA_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _is_set_expr(node: ast.AST) -> bool:
    """A set display, set comprehension, bare ``set(...)`` call, or set
    algebra (``|``, ``&``, ``-``, ``^``) with a set operand."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_ALGEBRA_OPS):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "set"
    )


class Det001(Rule):
    name = "DET001"
    description = "no wall clock, global RNG, entropy, or set-ordering hazards"

    def check(self, module: ParsedModule) -> typing.Iterator[Finding]:
        if module.in_package(*ALLOWED_PATH_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_expr(node.iter):
                    yield self.finding(
                        module, node.iter,
                        "iterating a set directly produces hash-randomized "
                        "order; wrap it in sorted(...)",
                    )

    def _check_call(
        self, module: ParsedModule, node: ast.Call
    ) -> typing.Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            reason = _BANNED_ATTR_CALLS.get((base, attr))
            if reason is not None:
                yield self.finding(
                    module, node,
                    f"{base}.{attr}() reads {reason}; simulation code must "
                    "use virtual time (env.now) or a seeded Random",
                )
            elif base == "random" and attr in _GLOBAL_RANDOM_FNS:
                yield self.finding(
                    module, node,
                    f"global random.{attr}() shares interpreter-wide RNG "
                    "state; use a seeded random.Random(seed) instance",
                )
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in _NUMPY_ALIASES
        ):
            # np.random.X(...) — the hidden module-level RandomState, or
            # a generator constructor called without a seed.
            attr = func.attr
            if attr in _NUMPY_GLOBAL_FNS:
                yield self.finding(
                    module, node,
                    f"numpy.random.{attr}() uses the hidden global "
                    "RandomState; use a seeded "
                    "numpy.random.Generator(PCG64(seed)) instead",
                )
            elif attr in _NUMPY_SEEDED_CTORS and not node.args and not node.keywords:
                yield self.finding(
                    module, node,
                    f"numpy.random.{attr}() without a seed draws OS "
                    "entropy; pass an explicit seed",
                )
        elif isinstance(func, ast.Name) and func.id in _ORDERING_SINKS:
            if len(node.args) == 1 and _is_set_expr(node.args[0]):
                yield self.finding(
                    module, node,
                    f"{func.id}(set) materializes hash-randomized order; "
                    "use sorted(...) to make the order explicit",
                )
