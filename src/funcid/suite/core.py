"""Problem identities, seeded instance construction, and counted evaluation."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import bbob, discrete


class Suite(enum.Enum):
    CONTINUOUS_BBOB = "bbob"
    DISCRETE_PB = "discrete"


class SuiteError(ValueError):
    """Unknown problem, unsupported dimension, or invalid evaluation input."""


@dataclass(frozen=True)
class ProblemId:
    suite: Suite
    index: int
    display_name: str

    def __post_init__(self):
        table = _table_for(self.suite)
        if self.index not in table:
            raise SuiteError(f"index {self.index} outside {self.suite.value} suite range")


def _table_for(suite: Suite) -> dict:
    if suite is Suite.CONTINUOUS_BBOB:
        return bbob.FUNCTION_TABLE
    if suite is Suite.DISCRETE_PB:
        return discrete.FUNCTION_TABLE
    raise SuiteError(f"unknown suite {suite!r}")


def problem(suite: Suite, index: int) -> ProblemId:
    """The ProblemId for function ``index`` of ``suite``."""
    table = _table_for(suite)
    if index not in table:
        raise SuiteError(f"index {index} outside {suite.value} suite range")
    entry = table[index]
    name = entry[0] if suite is Suite.CONTINUOUS_BBOB else entry
    return ProblemId(suite, index, name)


def list_functions(suite: Suite) -> tuple[ProblemId, ...]:
    """All problems of a suite, in canonical index order."""
    return tuple(problem(suite, k) for k in sorted(_table_for(suite)))


def bbob_class(index: int) -> str:
    """Structural class tag i..v of a continuous function."""
    return bbob.FUNCTION_TABLE[index][1]


@dataclass
class EvalCounter:
    """Counts objective queries; repeat queries of one point stay memoized.

    distinct_queries <= total_queries always; both only grow.
    """

    distinct_queries: int = 0
    total_queries: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    def lookup(self, key) -> float | None:
        return self._cache.get(key)

    def record(self, key, value: float, fresh: bool) -> None:
        self.total_queries += 1
        if fresh:
            self.distinct_queries += 1
            self._cache[key] = value


@dataclass(eq=False)
class FunctionInstance:
    """A concrete seeded realization of a benchmark function.

    ``translation`` stores the instance optimum location for the continuous
    suite (it coincides with the drawn shift for most functions and is the
    structurally determined optimum for the rest).  Discrete instances carry
    no transforms: the seed is recorded but evaluation is the raw function.
    """

    problem: ProblemId
    dim: int
    instance_seed: int
    translation: np.ndarray | None
    rotations: tuple[np.ndarray, ...]
    f_offset: float
    params: dict = field(repr=False)

    @property
    def x_opt(self) -> np.ndarray | None:
        return self.translation

    @property
    def cache_key(self) -> tuple:
        return (self.problem.suite.value, self.problem.index, self.dim, self.instance_seed)

    def evaluate_raw(self, x: np.ndarray) -> float:
        if self.problem.suite is Suite.CONTINUOUS_BBOB:
            return bbob.EVALUATORS[self.problem.index](self.params, x) + self.f_offset
        return discrete.EVALUATORS[self.problem.index](x)


def make_instance(prob: ProblemId, d: int, instance_seed: int) -> FunctionInstance:
    """Build the deterministic instance for (problem, d, seed).

    Continuous: translation/rotations/offset come from per-purpose
    substreams of the seed; seed 0 forces the identity transforms (zero
    translation, identity rotations) with the offset still drawn.
    Discrete: d is the bitstring length (capped at 64).
    """
    if not isinstance(prob, ProblemId):
        raise SuiteError(f"expected ProblemId, got {type(prob).__name__}")
    _table_for(prob.suite)  # validates suite

    if prob.suite is Suite.CONTINUOUS_BBOB:
        if d < 2:
            raise SuiteError(f"continuous suite needs d >= 2, got {d}")
        params = bbob.build_params(prob.index, d, instance_seed)
        rotations = tuple(m for m in (params["R"], params["Q"]) if m is not None)
        return FunctionInstance(
            problem=prob,
            dim=d,
            instance_seed=instance_seed,
            translation=np.asarray(params["x_opt"], dtype=np.float64),
            rotations=rotations,
            f_offset=params["f_offset"],
            params=params,
        )

    try:
        discrete.validate_dim(prob.index, d)
    except ValueError as exc:
        raise SuiteError(str(exc)) from None
    return FunctionInstance(
        problem=prob,
        dim=d,
        instance_seed=instance_seed,
        translation=None,
        rotations=(),
        f_offset=0.0,
        params={},
    )


def evaluate(
    instance: FunctionInstance, x: np.ndarray, counter: EvalCounter | None = None
) -> float:
    """Evaluate the instance at ``x``, tracking queries on ``counter``.

    total_queries ticks on every call; distinct_queries only when this exact
    bit pattern has not been evaluated on this instance via this counter.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (instance.dim,):
        raise SuiteError(
            f"point of shape {x.shape} does not match instance dimension {instance.dim}"
        )
    if instance.problem.suite is Suite.DISCRETE_PB and not np.all((x == 0.0) | (x == 1.0)):
        raise SuiteError("discrete suite inputs must be 0/1 vectors")

    if counter is None:
        return instance.evaluate_raw(x)

    key = (instance.cache_key, x.tobytes())
    cached = counter.lookup(key)
    if cached is not None:
        counter.record(key, cached, fresh=False)
        return cached
    value = instance.evaluate_raw(x)
    counter.record(key, value, fresh=True)
    return value
