"""Declarative scenario specifications.

A *scenario* describes one task-graph scheduling experiment — which
graphs, which machine model, which algorithms, which metrics, and
optionally a sweep over any of those axes — as a plain JSON/TOML
document.  :func:`validate_spec` turns such a document into a
:class:`ScenarioSpec` after schema-checking every field with an
actionable, dotted-path error message; :mod:`repro.scenarios.compile`
then lowers the spec onto the parallel, persisted grid engine of
:mod:`repro.bench.parallel`.

Document shape
--------------
::

    {
      "name": "hetero-speeds",              # identifier, required
      "description": "...",                 # optional prose
      "graphs": {...},                      # required, see below
      "algorithms": ["MCP", {"class": "UNC"}],   # names and/or classes
      "machine": {                          # optional, paper defaults
        "bnp_procs": 8,                     # int or "unbounded"
        "bnp_speeds": [2, 2, 1, 1],         # heterogeneous BNP machine
        "apn": {"kind": "hypercube", "dim": 3, "bandwidth": 1.0},
        "validate": true
      },
      "metrics": ["length", "nsl"],         # subset of METRICS
      "simulate": {                         # optional: execution layer
        "trials": 100, "seed": 7, "network": "auto",
        "perturb": {"duration": {"dist": "lognormal", "param": 0.3}}
      },
      "adversarial": {                      # optional: instance search
        "pair": ["LAST", "MCP"], "objective": "ratio",
        "steps": 150, "chains": 4, "temperature": 0.02, "seed": 5
      },
      "online": {                           # optional: information modes
        "imodes": ["exact", "mean", "blind"], "seed": 9
      },
      "sweep": {"machine.bnp_procs": [2, 4, 8]}   # cartesian product
    }

``graphs`` selects either a named paper suite or a generator grid::

    {"suite": "rgnos", "full": false, "limit": 10}
    {"generator": "rgnos", "sizes": [50], "ccrs": [1.0],
     "parallelisms": [3], "seed": 7}
    {"generator": "rgbos", "sizes": [10, 20], "ccrs": [0.1, 10.0]}
    {"generator": "rgpos", "sizes": [50], "ccrs": [1.0], "procs": 8}
    {"generator": "cholesky", "dims": [8, 12], "ccr": 1.0}

``sweep`` maps dotted paths inside the document (``machine.*`` or
``graphs.*``) to lists of values; the compiled scenario is the
cartesian product of all axes, one grid-engine variant per point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "METRICS",
    "GENERATORS",
    "TOPOLOGY_KINDS",
    "SpecError",
    "ScenarioSpec",
    "validate_spec",
    "load_spec",
]

#: Metrics a scenario may select (columns of its result tables).
METRICS = ("length", "nsl", "procs_used", "runtime_s", "degradation")

#: Generator-grid families understood by ``graphs.generator``.
GENERATORS = ("rgnos", "rgbos", "rgpos", "cholesky")

#: Topology families understood by ``machine.apn.kind``.
TOPOLOGY_KINDS = ("hypercube", "ring", "chain", "star", "clique",
                  "mesh2d", "random")

_DEFAULT_METRICS = ("length", "nsl", "procs_used", "runtime_s")


class SpecError(ValueError):
    """A scenario document violates the schema.

    ``path`` is the dotted location of the offending field, and the
    message always embeds it — errors are meant to be actionable as a
    single line.
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise SpecError(path, message)


def _expect_mapping(value, path: str) -> Mapping:
    _expect(isinstance(value, Mapping), path,
            f"expected an object, got {type(value).__name__}")
    return value


def _expect_str(value, path: str) -> str:
    _expect(isinstance(value, str) and value != "", path,
            "expected a non-empty string")
    return value


def _expect_number(value, path: str, *, positive: bool = True) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, f"expected a number, got {type(value).__name__}")
    if positive:
        _expect(value > 0, path, f"expected a positive number, got {value}")
    return float(value)


def _expect_int(value, path: str, *, minimum: int = 1) -> int:
    _expect(value is not None, path, "required key is missing")
    _expect(isinstance(value, int) and not isinstance(value, bool), path,
            f"expected an integer, got {type(value).__name__}")
    _expect(value >= minimum, path, f"expected an integer >= {minimum}, "
            f"got {value}")
    return value


def _expect_number_list(value, path: str, *, positive: bool = True,
                        integers: bool = False) -> List:
    _expect(value is not None, path, "required key is missing")
    _expect(isinstance(value, Sequence) and not isinstance(value, str),
            path, "expected a list")
    _expect(len(value) > 0, path, "expected a non-empty list")
    out = []
    for i, item in enumerate(value):
        if integers:
            out.append(_expect_int(item, f"{path}[{i}]"))
        else:
            out.append(_expect_number(item, f"{path}[{i}]",
                                      positive=positive))
    return out


# ----------------------------------------------------------------------
# field validators
# ----------------------------------------------------------------------
def _validate_graphs(data, path: str = "graphs") -> Dict[str, Any]:
    data = dict(_expect_mapping(data, path))
    has_suite = "suite" in data
    has_gen = "generator" in data
    _expect(has_suite != has_gen, path,
            "exactly one of 'suite' or 'generator' is required")
    out: Dict[str, Any] = {}
    if has_suite:
        from ..bench.suites import suite_names

        suite = _expect_str(data.pop("suite"), f"{path}.suite")
        _expect(suite in suite_names(), f"{path}.suite",
                f"unknown suite {suite!r}; expected one of "
                f"{', '.join(suite_names())}")
        out["suite"] = suite
        if "full" in data:
            full = data.pop("full")
            _expect(isinstance(full, bool), f"{path}.full",
                    "expected true or false")
            out["full"] = full
    else:
        gen = _expect_str(data.pop("generator"), f"{path}.generator")
        _expect(gen in GENERATORS, f"{path}.generator",
                f"unknown generator {gen!r}; expected one of "
                f"{', '.join(GENERATORS)}")
        out["generator"] = gen
        if gen in ("rgnos", "rgbos", "rgpos"):
            out["sizes"] = _expect_number_list(
                data.pop("sizes", None), f"{path}.sizes", integers=True)
            out["ccrs"] = _expect_number_list(
                data.pop("ccrs", None), f"{path}.ccrs")
        if gen == "rgnos":
            out["parallelisms"] = _expect_number_list(
                data.pop("parallelisms", None), f"{path}.parallelisms",
                integers=True)
        if gen == "rgpos":
            if "procs" in data:
                out["procs"] = _expect_int(data.pop("procs"),
                                           f"{path}.procs")
        if gen == "cholesky":
            out["dims"] = _expect_number_list(
                data.pop("dims", None), f"{path}.dims", integers=True)
            if "ccr" in data:
                out["ccr"] = _expect_number(data.pop("ccr"), f"{path}.ccr")
        if "seed" in data:
            seed = data.pop("seed")
            _expect(isinstance(seed, int) and not isinstance(seed, bool),
                    f"{path}.seed", "expected an integer")
            out["seed"] = seed
    if "limit" in data:
        out["limit"] = _expect_int(data.pop("limit"), f"{path}.limit")
    _expect(not data, path,
            f"unknown keys: {', '.join(sorted(map(str, data)))}")
    return out


def _validate_topology(data, path: str) -> Dict[str, Any]:
    data = dict(_expect_mapping(data, path))
    kind = _expect_str(data.pop("kind", None) or "", f"{path}.kind")
    _expect(kind in TOPOLOGY_KINDS, f"{path}.kind",
            f"unknown topology kind {kind!r}; expected one of "
            f"{', '.join(TOPOLOGY_KINDS)}")
    out: Dict[str, Any] = {"kind": kind}
    if kind == "hypercube":
        out["dim"] = _expect_int(data.pop("dim", None), f"{path}.dim",
                                 minimum=0)
    elif kind == "mesh2d":
        out["rows"] = _expect_int(data.pop("rows", None), f"{path}.rows")
        out["cols"] = _expect_int(data.pop("cols", None), f"{path}.cols")
    else:
        out["procs"] = _expect_int(data.pop("procs", None),
                                   f"{path}.procs")
        if kind == "random":
            if "extra_links" in data:
                out["extra_links"] = _expect_int(
                    data.pop("extra_links"), f"{path}.extra_links",
                    minimum=0)
            if "seed" in data:
                seed = data.pop("seed")
                _expect(isinstance(seed, int) and not isinstance(seed, bool),
                        f"{path}.seed", "expected an integer")
                out["seed"] = seed
    if "bandwidth" in data:
        out["bandwidth"] = _expect_number(data.pop("bandwidth"),
                                          f"{path}.bandwidth")
    _expect(not data, path,
            f"unknown keys: {', '.join(sorted(map(str, data)))}")
    return out


def _validate_machine(data, path: str = "machine") -> Dict[str, Any]:
    data = dict(_expect_mapping(data, path))
    out: Dict[str, Any] = {}
    if "bnp_procs" in data:
        procs = data.pop("bnp_procs")
        if procs in ("unbounded", None):
            out["bnp_procs"] = "unbounded"
        else:
            out["bnp_procs"] = _expect_int(procs, f"{path}.bnp_procs")
    if "bnp_speeds" in data:
        out["bnp_speeds"] = _expect_number_list(
            data.pop("bnp_speeds"), f"{path}.bnp_speeds")
        _expect(out.get("bnp_procs") != "unbounded",
                f"{path}.bnp_speeds",
                "speed factors imply a bounded machine of "
                f"{len(out['bnp_speeds'])} processors, which contradicts "
                "bnp_procs='unbounded' — drop one of the two")
        if out.get("bnp_procs") is not None:
            _expect(out["bnp_procs"] == len(out["bnp_speeds"]),
                    f"{path}.bnp_speeds",
                    f"{len(out['bnp_speeds'])} speed factors disagree "
                    f"with bnp_procs={out['bnp_procs']}")
    if "apn" in data:
        out["apn"] = _validate_topology(data.pop("apn"), f"{path}.apn")
    if "validate" in data:
        flag = data.pop("validate")
        _expect(isinstance(flag, bool), f"{path}.validate",
                "expected true or false")
        out["validate"] = flag
    _expect(not data, path,
            f"unknown keys: {', '.join(sorted(map(str, data)))}")
    return out


def _validate_algorithms(data, path: str = "algorithms") -> Tuple:
    from ..algorithms import get_scheduler, list_schedulers
    from ..algorithms.base import SCHEDULER_CLASSES

    _expect(isinstance(data, Sequence) and not isinstance(data, str),
            path, "expected a list of algorithm names (acronyms or "
            "'param:' component specs) and/or "
            '{"class": ...} / {"param": ...} selectors')
    _expect(len(data) > 0, path, "expected a non-empty list")
    items: List[Any] = []
    for i, item in enumerate(data):
        if isinstance(item, str):
            try:
                # Canonicalise through the registry: acronyms resolve
                # to their registered spelling, 'param:' specs to the
                # canonical axis order — one cache key per scheduler,
                # however the document spelled it.
                items.append(get_scheduler(item).name)
            except KeyError:
                raise SpecError(
                    f"{path}[{i}]",
                    f"unknown algorithm {item!r}; known: "
                    f"{', '.join(list_schedulers())} "
                    f"(or a 'param:' component spec)") from None
            except ValueError as exc:
                raise SpecError(f"{path}[{i}]", str(exc)) from None
        elif isinstance(item, Mapping) and "param" in item:
            from ..algorithms.components import expand_param_grid

            _expect(set(item) == {"param"}, f"{path}[{i}]",
                    "a component-space selector has exactly the "
                    "key 'param'")
            grid = item["param"]
            _expect(isinstance(grid, Mapping), f"{path}[{i}].param",
                    "expected a mapping of component axis -> value list")
            for axis, values in grid.items():
                _expect(isinstance(values, Sequence)
                        and not isinstance(values, str)
                        and all(isinstance(v, str) for v in values),
                        f"{path}[{i}].param.{axis}",
                        "expected a list of component names")
            try:
                specs = expand_param_grid(grid)
            except ValueError as exc:
                raise SpecError(f"{path}[{i}].param", str(exc)) from None
            items.append({"param": {str(axis).lower(): tuple(values)
                                    for axis, values in grid.items()}})
            del specs  # validated above; expansion happens at compile time
        elif isinstance(item, Mapping):
            klass = item.get("class")
            _expect(isinstance(klass, str)
                    and klass.upper() in SCHEDULER_CLASSES,
                    f"{path}[{i}].class",
                    f"expected one of {', '.join(SCHEDULER_CLASSES)}")
            _expect(set(item) == {"class"}, f"{path}[{i}]",
                    "a class selector has exactly the key 'class'")
            items.append({"class": klass.upper()})
        else:
            raise SpecError(f"{path}[{i}]",
                            "expected an algorithm name, a "
                            '{"class": ...} selector or a '
                            '{"param": ...} component grid')
    return tuple(items)


def expand_algorithms(items: Sequence) -> Tuple[str, ...]:
    """Resolve names + class/param selectors to a deduplicated tuple.

    ``{"param": {...}}`` grids expand to the cartesian product of
    their component axes, each combination under its canonical
    ``param:`` name — so a grid cell is cached exactly like the same
    scheduler listed explicitly.
    """
    from ..algorithms import list_schedulers

    out: List[str] = []
    for item in items:
        if isinstance(item, str):
            names = [item]
        elif "param" in item:
            from ..algorithms.components import expand_param_grid

            names = [spec.canonical()
                     for spec in expand_param_grid(item["param"])]
        else:
            names = list_schedulers(item["class"])
        for name in names:
            if name not in out:
                out.append(name)
    return tuple(out)


def _validate_metrics(data, path: str = "metrics") -> Tuple[str, ...]:
    _expect(isinstance(data, Sequence) and not isinstance(data, str),
            path, "expected a list of metric names")
    _expect(len(data) > 0, path, "expected a non-empty list")
    out = []
    for i, item in enumerate(data):
        _expect(isinstance(item, str) and item in METRICS, f"{path}[{i}]",
                f"unknown metric {item!r}; expected one of "
                f"{', '.join(METRICS)}")
        if item not in out:
            out.append(item)
    return tuple(out)


def _sim_networks() -> Tuple[str, ...]:
    """Backend names, from the sim package's single source of truth."""
    from ..sim.netmodel import NETWORK_KINDS

    return NETWORK_KINDS


def _validate_simulate(data, path: str = "simulate") -> Dict[str, Any]:
    """Schema-check a ``simulate:`` block (the sim-sweep axis).

    The block configures the discrete-event execution layer
    (:mod:`repro.sim`): Monte-Carlo trial count and seed, the transport
    backend, and up to three noise sources, each a mean-1 distribution
    ``{"dist": "uniform"|"normal"|"lognormal", "param": x}``.
    """
    data = dict(_expect_mapping(data, path))
    out: Dict[str, Any] = {}
    if "trials" in data:
        out["trials"] = _expect_int(data.pop("trials"), f"{path}.trials")
    if "seed" in data:
        seed = data.pop("seed")
        _expect(isinstance(seed, int) and not isinstance(seed, bool)
                and seed >= 0, f"{path}.seed",
                "expected a non-negative integer (numpy seed streams "
                "reject negative seeds)")
        out["seed"] = seed
    if "network" in data:
        net = _expect_str(data.pop("network"), f"{path}.network")
        kinds = _sim_networks()
        _expect(net in kinds, f"{path}.network",
                f"unknown network {net!r}; expected one of "
                f"{', '.join(kinds)}")
        out["network"] = net
    for key in ("scale", "latency"):
        if key in data:
            out[key] = _expect_number(data.pop(key), f"{path}.{key}",
                                      positive=False)
            _expect(out[key] >= 0, f"{path}.{key}",
                    f"expected a number >= 0, got {out[key]}")
            # Only the fixed-delay backend consumes these; accepting
            # them elsewhere would silently simulate a different model.
            _expect(out.get("network") == "fixed", f"{path}.{key}",
                    "only applies to network: 'fixed' — set it or drop "
                    f"'{key}'")
    if "perturb" in data:
        perturb = dict(_expect_mapping(data.pop("perturb"),
                                       f"{path}.perturb"))
        from ..sim.perturb import perturbation_from_dict

        try:
            perturbation_from_dict(perturb)
        except ValueError as exc:
            raise SpecError(f"{path}.perturb", str(exc)) from None
        out["perturb"] = perturb
    _expect(not data, path,
            f"unknown keys: {', '.join(sorted(map(str, data)))}")
    return out


def _validate_adversarial(data, path: str = "adversarial"
                          ) -> Dict[str, Any]:
    """Schema-check an ``adversarial:`` block (the instance-search axis).

    The block configures the PISA-style search layer
    (:mod:`repro.adversarial`): the ordered scheduler pair whose gap is
    maximised, the objective kind, and the annealing knobs.  The
    scenario's ``graphs`` axis supplies the chains' seed instances.
    """
    from ..adversarial.mutate import mutation_names
    from ..adversarial.objective import OBJECTIVES
    from ..algorithms import get_scheduler, list_schedulers

    data = dict(_expect_mapping(data, path))
    pair = data.pop("pair", None)
    _expect(isinstance(pair, Sequence) and not isinstance(pair, str)
            and len(pair) == 2, f"{path}.pair",
            "expected a list of exactly two algorithm names")
    names = []
    for i, item in enumerate(pair):
        name = _expect_str(item, f"{path}.pair[{i}]")
        try:
            names.append(get_scheduler(name).name)
        except KeyError:
            raise SpecError(
                f"{path}.pair[{i}]",
                f"unknown algorithm {name!r}; known: "
                f"{', '.join(list_schedulers())} "
                f"(or a 'param:' component spec)") from None
        except ValueError as exc:
            raise SpecError(f"{path}.pair[{i}]", str(exc)) from None
    klasses = {get_scheduler(n).klass for n in names}
    _expect(len(klasses) == 1, f"{path}.pair",
            "the pair must come from one class (BNP/UNC/APN) — "
            f"{names[0]} and {names[1]} use different machine models")
    out: Dict[str, Any] = {"pair": names}
    if "objective" in data:
        obj = _expect_str(data.pop("objective"), f"{path}.objective")
        _expect(obj in OBJECTIVES, f"{path}.objective",
                f"unknown objective {obj!r}; expected one of "
                f"{', '.join(OBJECTIVES)}")
        out["objective"] = obj
    for key in ("steps", "chains", "trials"):
        if key in data:
            out[key] = _expect_int(data.pop(key), f"{path}.{key}")
    if "temperature" in data:
        out["temperature"] = _expect_number(
            data.pop("temperature"), f"{path}.temperature", positive=False)
        _expect(out["temperature"] >= 0, f"{path}.temperature",
                f"expected a number >= 0, got {out['temperature']}")
    if "cooling" in data:
        out["cooling"] = _expect_number(data.pop("cooling"),
                                        f"{path}.cooling")
        _expect(out["cooling"] <= 1, f"{path}.cooling",
                f"expected a number in (0, 1], got {out['cooling']}")
    if "noise" in data:
        out["noise"] = _expect_number(data.pop("noise"), f"{path}.noise")
    if "seed" in data:
        seed = data.pop("seed")
        _expect(isinstance(seed, int) and not isinstance(seed, bool)
                and seed >= 0, f"{path}.seed",
                "expected a non-negative integer")
        out["seed"] = seed
    if "ops" in data:
        ops = data.pop("ops")
        _expect(isinstance(ops, Sequence) and not isinstance(ops, str)
                and len(ops) > 0, f"{path}.ops",
                "expected a non-empty list of mutation names")
        known = mutation_names()
        for i, op in enumerate(ops):
            _expect(isinstance(op, str) and op in known,
                    f"{path}.ops[{i}]",
                    f"unknown mutation {op!r}; expected one of "
                    f"{', '.join(known)}")
        out["ops"] = list(dict.fromkeys(ops))
    _expect(not data, path,
            f"unknown keys: {', '.join(sorted(map(str, data)))}")
    return out


def _validate_online(data, path: str = "online") -> Dict[str, Any]:
    """Schema-check an ``online:`` block (the information-mode axis).

    The block asks the scenario to re-run every (component-expressible)
    algorithm *event-driven* under partial information
    (:mod:`repro.sim.online`): each selected information mode adds the
    algorithms' ``online:`` counterparts to the grid beside the static
    originals, so one run prices what blind/mean/user estimates cost.
    """
    from ..sim.online import IMODES

    data = dict(_expect_mapping(data, path))
    out: Dict[str, Any] = {}
    if "imodes" in data:
        imodes = data.pop("imodes")
        _expect(isinstance(imodes, Sequence) and not isinstance(imodes, str)
                and len(imodes) > 0, f"{path}.imodes",
                "expected a non-empty list of information modes")
        seen = []
        for i, item in enumerate(imodes):
            _expect(isinstance(item, str) and item.lower() in IMODES,
                    f"{path}.imodes[{i}]",
                    f"unknown information mode {item!r}; expected one of "
                    f"{', '.join(IMODES)}")
            if item.lower() not in seen:
                seen.append(item.lower())
        out["imodes"] = seen
    if "seed" in data:
        seed = data.pop("seed")
        _expect(isinstance(seed, int) and not isinstance(seed, bool)
                and seed >= 0, f"{path}.seed",
                "expected a non-negative integer")
        out["seed"] = seed
    _expect(not data, path,
            f"unknown keys: {', '.join(sorted(map(str, data)))}")
    return out


_SWEEPABLE_ROOTS = ("machine", "graphs", "simulate", "adversarial",
                    "online")


def _validate_sweep(data, path: str = "sweep") -> Dict[str, Tuple]:
    data = _expect_mapping(data, path)
    out: Dict[str, Tuple] = {}
    for key, values in data.items():
        kpath = f"{path}[{key!r}]"
        roots = "/".join(f"'{r}'" for r in _SWEEPABLE_ROOTS)
        _expect(isinstance(key, str) and key.split(".")[0]
                in _SWEEPABLE_ROOTS, kpath,
                f"sweep paths must start with one of {roots} "
                "(dotted or bare)")
        _expect(isinstance(values, Sequence) and not isinstance(values, str),
                kpath, "expected a list of values to sweep")
        _expect(len(values) > 0, kpath, "expected a non-empty list")
        out[key] = tuple(values)
    return out


# ----------------------------------------------------------------------
# the spec object
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario document.

    Construct via :func:`validate_spec`; every field is already
    schema-checked and canonicalised.  :meth:`to_dict` emits the
    canonical document — ``validate_spec(spec.to_dict())`` round-trips.
    """

    name: str
    graphs: Mapping[str, Any]
    algorithms: Tuple  # names and/or {"class": ...} selectors, as given
    description: str = ""
    machine: Mapping[str, Any] = field(default_factory=dict)
    metrics: Tuple[str, ...] = _DEFAULT_METRICS
    sweep: Mapping[str, Tuple] = field(default_factory=dict)
    simulate: Mapping[str, Any] = field(default_factory=dict)
    adversarial: Mapping[str, Any] = field(default_factory=dict)
    online: Mapping[str, Any] = field(default_factory=dict)

    @property
    def algorithm_names(self) -> Tuple[str, ...]:
        """The expanded, deduplicated algorithm selection."""
        return expand_algorithms(self.algorithms)

    def num_variants(self) -> int:
        """Size of the sweep's cartesian product (1 without a sweep)."""
        n = 1
        for values in self.sweep.values():
            n *= len(values)
        return n

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON-compatible document."""
        doc: Dict[str, Any] = {"name": self.name}
        if self.description:
            doc["description"] = self.description
        doc["graphs"] = _plain(self.graphs)
        doc["algorithms"] = _plain(list(self.algorithms))
        if self.machine:
            doc["machine"] = _plain(self.machine)
        doc["metrics"] = list(self.metrics)
        if self.simulate:
            doc["simulate"] = _plain(self.simulate)
        if self.adversarial:
            doc["adversarial"] = _plain(self.adversarial)
        if self.online:
            doc["online"] = _plain(self.online)
        if self.sweep:
            doc["sweep"] = {k: _plain(list(v))
                            for k, v in self.sweep.items()}
        return doc


def _plain(value):
    """Deep-copy to plain dict/list/scalar JSON types."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def validate_spec(data: Mapping) -> ScenarioSpec:
    """Schema-check a scenario document; raises :class:`SpecError`.

    Sweep axes are validated point-by-point: every variant of the
    cartesian product must itself pass the schema, so a bad value deep
    inside a sweep list is reported before anything runs.
    """
    data = dict(_expect_mapping(data, ""))
    name = _expect_str(data.pop("name", None) or "", "name")
    _expect(all(c.isalnum() or c in "-_" for c in name), "name",
            f"{name!r} may only contain letters, digits, '-' and '_'")
    description = data.pop("description", "")
    _expect(isinstance(description, str), "description",
            "expected a string")
    _expect("graphs" in data, "graphs", "required key is missing")
    graphs = _validate_graphs(data.pop("graphs"))
    _expect("algorithms" in data, "algorithms", "required key is missing")
    algorithms = _validate_algorithms(data.pop("algorithms"))
    machine = (_validate_machine(data.pop("machine"))
               if "machine" in data else {})
    metrics = (_validate_metrics(data.pop("metrics"))
               if "metrics" in data else _DEFAULT_METRICS)
    simulate = (_validate_simulate(data.pop("simulate"))
                if "simulate" in data else {})
    adversarial = (_validate_adversarial(data.pop("adversarial"))
                   if "adversarial" in data else {})
    online = (_validate_online(data.pop("online"))
              if "online" in data else {})
    sweep = (_validate_sweep(data.pop("sweep"))
             if "sweep" in data else {})
    _expect(not data, "",
            f"unknown top-level keys: {', '.join(sorted(map(str, data)))}")
    spec = ScenarioSpec(
        name=name, graphs=graphs, algorithms=algorithms,
        description=description, machine=machine, metrics=metrics,
        sweep=sweep, simulate=simulate, adversarial=adversarial,
        online=online,
    )
    _check_variants(spec)
    _check_speed_algorithms(spec)
    _check_online_algorithms(spec)
    return spec


def apply_override(doc: Dict[str, Any], path: str, value) -> None:
    """Set ``doc[path] = value`` through a dotted path, in place."""
    keys = path.split(".")
    target = doc
    for key in keys[:-1]:
        nxt = target.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            target[key] = nxt
        target = nxt
    target[keys[-1]] = _plain(value)


def sweep_points(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """The sweep's cartesian product as override dicts, in axis order."""
    points: List[Dict[str, Any]] = [{}]
    for key, values in spec.sweep.items():
        points = [
            {**point, key: value}
            for point in points
            for value in values
        ]
    return points


def variant_document(spec: ScenarioSpec,
                     overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """The spec document with one sweep point applied (sweep removed)."""
    doc = spec.to_dict()
    doc.pop("sweep", None)
    for path, value in overrides.items():
        apply_override(doc, path, value)
    return doc


def _check_variants(spec: ScenarioSpec) -> None:
    """Validate every sweep point's document up front."""
    for overrides in sweep_points(spec):
        if not overrides:
            continue
        doc = variant_document(spec, overrides)
        try:
            validate_spec(doc)  # runs every per-variant check too
        except SpecError as exc:
            label = ", ".join(f"{k}={json.dumps(_plain(v))}"
                              for k, v in overrides.items())
            raise SpecError(
                "sweep", f"variant ({label}) is invalid — {exc}") from None


def _check_speed_algorithms(spec: ScenarioSpec) -> None:
    """Heterogeneous speeds only make sense for BNP algorithms."""
    from ..algorithms import get_scheduler

    if not spec.machine.get("bnp_speeds"):
        return
    non_bnp = [n for n in spec.algorithm_names
               if get_scheduler(n).klass != "BNP"]
    _expect(not non_bnp, "machine.bnp_speeds",
            "heterogeneous speeds apply only to BNP algorithms, but the "
            f"scenario also selects {', '.join(non_bnp)} — drop them or "
            "the speeds")


def _check_online_algorithms(spec: ScenarioSpec) -> None:
    """An ``online:`` block needs component-expressible algorithms.

    Only schedulers with a four-axis component decomposition (the six
    named BNP designs and every ``param:`` spec) have online
    counterparts; explicit ``online:`` names are rejected because the
    block would duplicate them per information mode.
    """
    if not spec.online:
        return
    from ..algorithms import ParamScheduler, get_scheduler

    bad = [n for n in spec.algorithm_names
           if not isinstance(get_scheduler(n), ParamScheduler)]
    _expect(not bad, "online",
            "online counterparts exist only for component-expressible "
            "schedulers (the named BNP designs and 'param:' specs), but "
            f"the scenario also selects {', '.join(bad)} — drop them or "
            "the online block")


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def load_spec(source: str) -> ScenarioSpec:
    """Load a scenario from a file path or a registry name.

    ``*.json`` is parsed with :mod:`json`, ``*.toml`` with the stdlib
    :mod:`tomllib`; anything that is not an existing file is treated as
    a registry name (see :mod:`repro.scenarios.registry`).
    """
    if os.path.exists(source):
        if source.endswith(".toml"):
            try:
                import tomllib
            except ImportError:  # pragma: no cover - python < 3.11
                try:
                    import tomli as tomllib  # type: ignore[no-redef]
                except ImportError:
                    raise SpecError(
                        "", f"{source}: TOML specs need Python >= 3.11 "
                        "(stdlib tomllib) or the 'tomli' backport; "
                        "use JSON instead") from None
            with open(source, "rb") as fh:
                try:
                    data = tomllib.load(fh)
                except tomllib.TOMLDecodeError as exc:
                    raise SpecError("", f"{source}: invalid TOML "
                                    f"({exc})") from None
        else:
            with open(source) as fh:
                try:
                    data = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise SpecError("", f"{source}: invalid JSON "
                                    f"({exc})") from None
        return validate_spec(data)
    from .registry import get_scenario, scenario_names

    try:
        return get_scenario(source)
    except KeyError:
        raise SpecError(
            "", f"{source!r} is neither a spec file nor a registered "
            f"scenario; registered: {', '.join(scenario_names())}"
        ) from None
