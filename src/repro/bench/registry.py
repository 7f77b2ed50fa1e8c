"""Declarative benchmark cases and their pass/fail gates.

A :class:`BenchCase` is a named, parameterized host-side benchmark: a
callable from a params dict to a flat metrics dict, plus the **gates**
that turn those metrics into a pass/fail verdict (speedup floors,
overhead ceilings, bit-identity equalities) and a **primary metric**
that regression detection (:mod:`repro.bench.compare`) tracks over
time.  A case fails its run when any gate fails, independent of what
the history says.

A :class:`Gate` limit may be a literal number/bool or the *name of a
case parameter* — ``Gate("speedup", ">=", "min_speedup")`` — so
overriding the parameter on the command line moves the gate with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.bench.stats import is_finite_number

#: Gate comparison operators.
GATE_OPS = (">=", "<=", "==")

#: Verdict directions for the primary metric.
DIRECTIONS = ("lower", "higher")


@dataclass(frozen=True)
class Gate:
    """One pass/fail predicate over a case's metrics dict."""

    metric: str
    op: str                       # ">=" | "<=" | "=="
    limit: object                 # number/bool, or a param name (str)
    description: str = ""

    def __post_init__(self):
        if self.op not in GATE_OPS:
            raise ValueError(f"unknown gate op {self.op!r}; "
                             f"known: {', '.join(GATE_OPS)}")

    def resolve_limit(self, params: Mapping[str, object]):
        """The concrete limit: literal, or looked up in ``params``."""
        if isinstance(self.limit, str):
            return params[self.limit]
        return self.limit

    def evaluate(self, metrics: Mapping[str, object],
                 params: Mapping[str, object]) -> Dict[str, object]:
        """Score one gate; a missing metric is a failure, not an error."""
        limit = self.resolve_limit(params)
        value = metrics.get(self.metric)
        if value is None:
            passed = False
        elif self.op == "==":
            passed = value == limit
        elif not is_finite_number(value) and not isinstance(value, bool):
            # NaN/inf can never clear a numeric floor or ceiling.
            passed = False
        elif self.op == ">=":
            passed = value >= limit
        else:
            passed = value <= limit
        return {"metric": self.metric, "op": self.op, "limit": limit,
                "value": value, "passed": bool(passed),
                "description": self.description}


@dataclass(frozen=True)
class BenchCase:
    """One registered host-side benchmark."""

    name: str
    description: str
    run: Callable[[Dict[str, object]], Dict[str, object]] = field(repr=False)
    params: Mapping[str, object] = field(default_factory=dict)
    gates: Tuple[Gate, ...] = ()
    primary_metric: str = "wall_s"
    primary_direction: str = "lower"     # "lower" | "higher" is better
    compare_threshold: float = 0.10      # relative delta for verdicts
    default_repeats: int = 1
    default_warmup: int = 0

    def __post_init__(self):
        if self.primary_direction not in DIRECTIONS:
            raise ValueError(f"unknown direction "
                             f"{self.primary_direction!r}; "
                             f"known: {', '.join(DIRECTIONS)}")

    def resolve_params(self, overrides: "Mapping[str, object] | None" = None,
                       strict: bool = True) -> Dict[str, object]:
        """Defaults merged with ``overrides``.

        With ``strict`` (the default) an override key the case does not
        declare raises, so a typo cannot silently benchmark the wrong
        configuration.
        """
        params = dict(self.params)
        for key, value in (overrides or {}).items():
            if key not in params:
                if strict:
                    raise ValueError(
                        f"case {self.name!r} has no parameter {key!r}; "
                        f"known: {', '.join(sorted(params)) or '(none)'}")
                continue
            params[key] = value
        return params

    def evaluate_gates(self, metrics: Mapping[str, object],
                       params: Mapping[str, object]) -> List[dict]:
        return [gate.evaluate(metrics, params) for gate in self.gates]


#: Registration order is display order.
REGISTRY: Dict[str, BenchCase] = {}


def register(case: BenchCase) -> BenchCase:
    """Add ``case`` to the registry (idempotent per name)."""
    REGISTRY[case.name] = case
    return case


def get_case(name: str) -> BenchCase:
    _ensure_cases()
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown bench case {name!r}; known: {known}")
    return REGISTRY[name]


def all_cases() -> List[BenchCase]:
    _ensure_cases()
    return list(REGISTRY.values())


def _ensure_cases() -> None:
    """Import the built-in case definitions exactly once."""
    if not REGISTRY:
        from repro.bench import cases  # noqa: F401  (registers on import)
