"""Benchmark function suites with seeded instance generation."""

from .core import (
    FunctionInstance,
    ProblemId,
    Suite,
    SuiteError,
    bbob_class,
    check_dim,
    evaluate,
    list_functions,
    make_instance,
    problem,
)
from .bbob import draw_rotations, random_orthogonal

__all__ = [
    "FunctionInstance",
    "ProblemId",
    "Suite",
    "SuiteError",
    "bbob_class",
    "check_dim",
    "draw_rotations",
    "evaluate",
    "list_functions",
    "make_instance",
    "problem",
    "random_orthogonal",
]
