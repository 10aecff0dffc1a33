"""Problem identities, seeded instance construction, and batched evaluation."""

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

    def __post_init__(self):
        if self.index not in _table_for(self.suite):
            raise SuiteError(f"index {self.index} outside {self.suite.value} suite range")

    @property
    def display_name(self) -> str:
        return _table_for(self.suite)[self.index].name


def _table_for(suite: Suite) -> dict:
    if suite is Suite.CONTINUOUS_BBOB:
        return bbob.FUNCTIONS
    if suite is Suite.DISCRETE_PB:
        return discrete.FUNCTIONS
    raise SuiteError(f"unknown suite {suite!r}")


def problem(suite: Suite, index: int) -> ProblemId:
    """The ProblemId for function ``index`` of ``suite``."""
    return ProblemId(suite, index)


def list_functions(suite: Suite) -> tuple[ProblemId, ...]:
    """All problems of a suite, in canonical index order."""
    return tuple(problem(suite, k) for k in sorted(_table_for(suite)))


def bbob_class(index: int) -> str:
    """Structural class tag i..v of a continuous function."""
    return bbob.FUNCTIONS[index].group


@dataclass(eq=False)
class FunctionInstance:
    """A concrete seeded realization of a benchmark function.

    The optimum location ``translation`` (the drawn shift for most continuous
    functions, the structurally determined optimum for the rest), the
    rotations and the offset are read from ``params``.  Discrete instances
    have empty ``params`` and no transforms: evaluation is the raw function.
    """

    problem: ProblemId
    dim: int
    instance_seed: int
    params: dict = field(repr=False)

    @property
    def translation(self) -> np.ndarray | None:
        return self.params.get("x_opt")

    @property
    def rotations(self) -> tuple[np.ndarray, ...]:
        return tuple(m for m in (self.params.get("R"), self.params.get("Q")) if m is not None)

    @property
    def f_offset(self) -> float:
        return self.params.get("f_offset", 0.0)

    def evaluate_raw(self, x: np.ndarray) -> np.ndarray:
        fn = _table_for(self.problem.suite)[self.problem.index].evaluate
        if self.problem.suite is Suite.CONTINUOUS_BBOB:
            return fn(self.params, x) + self.f_offset
        return fn(x)


def make_instance(
    prob: ProblemId, d: int, instance_seed: int, rotations: tuple | None = None
) -> FunctionInstance:
    """Build the deterministic instance for (problem, d, seed).

    Continuous: translation/rotations/offset come from per-purpose
    substreams of the seed; seed 0 forces the identity transforms (zero
    translation, identity rotations) with the offset still drawn.
    ``rotations``, when given, is the instance's (R | None, Q | None) pair
    as ``bbob.draw_rotations`` returns it, so a caller can draw many
    instances' rotations in one stack; otherwise they are drawn here.  A
    pair that does not fit the function raises ``SuiteError``.
    Discrete: d is the bitstring length (capped at 64); a discrete problem
    takes no rotations.
    """
    if not isinstance(prob, ProblemId):
        raise SuiteError(f"expected ProblemId, got {type(prob).__name__}")
    if rotations is not None:
        _check_rotations(prob, d, rotations)

    if prob.suite is Suite.CONTINUOUS_BBOB:
        if d < 2:
            raise SuiteError(f"continuous suite needs d >= 2, got {d}")
        if rotations is None:
            key = (prob.index, instance_seed)
            rotations = bbob.draw_rotations([key], d)[key]
        params = bbob.build_params(prob.index, d, instance_seed, rotations)
        return FunctionInstance(prob, d, instance_seed, params)

    try:
        discrete.validate_dim(prob.index, d)
    except ValueError as exc:
        raise SuiteError(str(exc)) from None
    return FunctionInstance(prob, d, instance_seed, {})


def _check_rotations(prob: ProblemId, d: int, rotations) -> None:
    """Reject an (R, Q) pair that does not fit the problem at dimension d.

    Each matrix the function uses must be a C-contiguous float64 (d, d)
    array, so that every matrix-vector reduction runs over contiguous rows
    and a supplied matrix gives the bytes of the same matrix drawn here; the
    others must be None.
    """
    n_rot = bbob.FUNCTIONS[prob.index].rotations if prob.suite is Suite.CONTINUOUS_BBOB else 0
    if not isinstance(rotations, tuple) or len(rotations) != 2:
        raise SuiteError("rotations must be an (R | None, Q | None) pair")
    present = [m is not None for m in rotations]
    if present != [i < n_rot for i in range(2)]:
        raise SuiteError(
            f"{prob.display_name} takes {n_rot} rotation(s), got {sum(present)}"
        )
    for m in rotations[:n_rot]:
        if not (
            isinstance(m, np.ndarray)
            and m.dtype == np.float64
            and m.shape == (d, d)
            and m.flags.c_contiguous
        ):
            raise SuiteError(f"each rotation must be a C-contiguous float64 ({d}, {d}) array")


# Rows per evaluator call.  An evaluator's temporaries grow with its rows
# (f21 holds two (rows, 101, d) float64 arrays, 2.3 MB each at d=22), so a
# batch runs in blocks; rows are independent, so the values do not depend on
# the block size.  A d=22 dataset builds as fast as with 256-row blocks,
# whose 4.5 MB temporaries raised the peak RSS of a LeNet-5 training run
# after the build by 8.6 MB (glibc kept the freed heap).
_BLOCK = 128


def evaluate(instance: FunctionInstance, x: np.ndarray) -> float | np.ndarray:
    """Evaluate the instance at a point, or at every row of a batch.

    ``x`` of shape (d,) gives a float; ``x`` of shape (n, d) gives the (n,)
    float64 array of row values, each the bytes a (d,) call would give.  The
    evaluator runs over blocks of at most ``_BLOCK`` rows.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    rows = x[None, :] if x.ndim == 1 else x
    if rows.ndim != 2 or rows.shape[1] != instance.dim:
        raise SuiteError(
            f"points of shape {x.shape} do not match instance dimension {instance.dim}"
        )
    if instance.problem.suite is Suite.DISCRETE_PB and not np.all((rows == 0.0) | (rows == 1.0)):
        raise SuiteError("discrete suite inputs must be 0/1 vectors")

    values = np.empty(len(rows))
    for start in range(0, len(rows), _BLOCK):
        values[start : start + _BLOCK] = instance.evaluate_raw(rows[start : start + _BLOCK])
    return float(values[0]) if x.ndim == 1 else values
