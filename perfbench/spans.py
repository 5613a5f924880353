"""Per-layer spans for the traced benchmark run, recorded from outside the program.

`install()` wraps every public function of every `primepoly` module and
rebinds the name in each `primepoly.*` namespace that imported it (so
`census.integer_solutions` is traced as well as `roots.integer_solutions`).
Each wrapped function accumulates its call count, its inclusive time
(outermost activations only, so recursion is not counted twice) and its
self time: its span minus the spans of wrapped functions it called.
Outcome counts are read from return values only.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.active: dict[str, int] = {}
        self._children = [0.0]  # time spent in wrapped callees, per open span

    def wrap(self, name: str, fn, outcome=None):
        stat = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        active, children = self.active, self._children
        active[name] = 0

        def traced(*args, **kwargs):
            children.append(0.0)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                inner = children.pop()
                children[-1] += span
                active[name] -= 1
                stat["calls"] += 1
                stat["self_s"] += span - inner
                if not active[name]:
                    stat["incl_s"] += span
            if outcome is not None:
                outcome(self, stat, args, result)
            return result

        return traced


def _add(stat: dict, key: str, amount) -> None:
    stat[key] = stat.get(key, 0) + amount


def _raise_to(stat: dict, key: str, value) -> None:
    stat[key] = max(stat.get(key, 0), value)


def _is_prime(tracer, stat, args, verdict):
    _add(stat, "primes", int(verdict.is_prime))
    _add(stat, "calls." + verdict.method, 1)
    _raise_to(stat, "bits_max", abs(verdict.value).bit_length())


def _integer_solutions(tracer, stat, args, result):
    _raise_to(stat, "degree_max", int(args[0].degree))
    if tracer.active.get("exceptional.search_exceptional"):
        _add(stat, "under_search", 1)


def _prime_census(tracer, stat, args, census):
    _add(stat, "candidates", len({m for f in census.fibers for m in f.eplus + f.eminus}))
    _add(stat, "witnesses", census.P)


def _search_n_plus_2(tracer, stat, args, result):
    t = getattr(result, "multiplier_t", None)
    _add(stat, "t_abs", abs(t) if t is not None else result.t_frontier)


OUTCOMES = {
    "roots.isolate_roots": lambda tr, st, a, r: _add(st, "roots_out", len(r)),
    "roots.integer_solutions": _integer_solutions,
    "primes.is_prime": _is_prime,
    "primes.find_multiplier": lambda tr, st, a, r: _add(st, "t_abs", abs(r.t)),
    "constructions.search_n_plus_2": _search_n_plus_2,
    "badpoints.bad_points": lambda tr, st, a, r: _add(st, "points_out", len(r)),
    "census.prime_census": _prime_census,
    "exceptional.search_exceptional": lambda tr, st, a, r: _add(st, "scanned", r.scanned),
}


def install() -> Tracer:
    """Wrap the public functions of every imported primepoly module."""
    tracer = Tracer()
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("primepoly.")]
    wrapped = {}
    for module in modules:
        layer = module.__name__.split(".", 1)[1]
        for name, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(fn)
            ):
                qualified = f"{layer}.{name}"
                wrapped[fn] = tracer.wrap(qualified, fn, OUTCOMES.get(qualified))
    for module in modules + [sys.modules["primepoly"]]:
        for name, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, name, wrapped[value])
    return tracer
