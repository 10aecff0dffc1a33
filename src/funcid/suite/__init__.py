"""Benchmark function suites with seeded instance generation."""

from .core import (
    FunctionInstance,
    ProblemId,
    Suite,
    SuiteError,
    bbob_class,
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
    "draw_rotations",
    "evaluate",
    "list_functions",
    "make_instance",
    "problem",
    "random_orthogonal",
]
