"""The declarative campaign spec: axes crossed into concrete points.

A :class:`CampaignSpec` is an ordered list of :class:`Section`\\ s; each
section names an executor ``kind`` (``check``, ``fuzz``, ``stress``,
``sweep``, ``lin`` -- see :mod:`repro.campaign.executors`), a set of
:class:`Axis` values to cross, fixed ``params`` shared by every point,
and the seeds to run each crossed combination under.  Crossing the
axes (in declaration order, seeds innermost) yields the section's
:class:`CampaignPoint` list -- the concrete, JSON-safe units of work
that :mod:`repro.campaign.compile` turns into engine tasks.

The same spec value is constructible two ways:

- **builder API** -- ``CampaignSpec("nightly").section("mc", "check")
  .axis("scenario", "alg1-w1-r1", "alg2-w1-r1")`` (each call returns
  the object it extended, so specs chain); the ``sweep``, ``check``,
  ``fuzz``, ``stress`` and ``lin`` subcommands build their one-section
  spec this way from their flags, and ``--print-spec`` dumps it (not
  for ``lin``: its history payloads carry JSON nulls, which TOML
  cannot write);
- **file** -- :func:`load_spec` reads TOML (Python 3.11+) or JSON.

Axis values may be any JSON value, lists and tables included (a lin
``history`` axis holds one recorded history per value).

Seed semantics: ``seeds`` may be an explicit list of integers (used
verbatim for every crossed combination -- how ``--seed N`` flags map
onto specs) or an integer count ``N``, in which case ``N`` seeds are
derived per combination from the spec's ``root_seed`` and the
combination's canonical identity (:func:`repro.engine.seeds.derive_seed`
-- the :func:`repro.engine.engine.make_tasks` convention), so adding an
axis value never perturbs any other combination's seeds.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.engine.seeds import derive_seed


class SpecError(ValueError):
    """A malformed campaign spec (bad file, unknown kind, empty axis)."""


@dataclass(frozen=True)
class Axis:
    """One named dimension of a section's design matrix."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SpecError(f"axis name must be a string, got {self.name!r}")
        if not self.values:
            raise SpecError(f"axis {self.name!r} has no values")


@dataclass(frozen=True)
class CampaignPoint:
    """One concrete unit of campaign work: a kind, params and a seed."""

    section: str
    kind: str
    index: int
    seed: int
    params: Dict[str, Any]


class Section:
    """One campaign section: an executor kind plus a design matrix."""

    def __init__(
        self,
        name: str,
        kind: str,
        *,
        axes: Optional[Iterable[Axis]] = None,
        params: Optional[Dict[str, Any]] = None,
        seeds: Union[int, Sequence[int]] = (0,),
    ) -> None:
        if not name or not isinstance(name, str):
            raise SpecError(f"section name must be a string, got {name!r}")
        self.name = name
        self.kind = kind
        self.axes: List[Axis] = list(axes or ())
        self.params: Dict[str, Any] = dict(params or {})
        self.seeds = self._check_seeds(seeds)

    @staticmethod
    def _check_seeds(
        seeds: Union[int, Sequence[int]]
    ) -> Union[int, tuple]:
        if isinstance(seeds, bool):
            raise SpecError("seeds must be an int count or a list of ints")
        if isinstance(seeds, int):
            if seeds < 1:
                raise SpecError("a seed count must be at least 1")
            return seeds
        out = tuple(seeds)
        if not out or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in out
        ):
            raise SpecError("seeds must be a non-empty list of ints")
        return out

    # -- builder API -------------------------------------------------------

    def axis(self, name: str, *values: Any) -> "Section":
        """Add an axis (chainable).  One call, one dimension."""
        if any(existing.name == name for existing in self.axes):
            raise SpecError(f"duplicate axis {name!r}")
        if name in self.params:
            raise SpecError(f"{name!r} is already a fixed param")
        self.axes.append(Axis(name, tuple(values)))
        return self

    def param(self, **values: Any) -> "Section":
        """Fix shared parameters for every point (chainable)."""
        for key in values:
            if any(existing.name == key for existing in self.axes):
                raise SpecError(f"{key!r} is already an axis")
        self.params.update(values)
        return self

    # -- crossing ----------------------------------------------------------

    def combinations(self) -> List[Dict[str, Any]]:
        """The crossed design matrix, axes in declaration order."""
        combos: List[Dict[str, Any]] = [dict(self.params)]
        for axis in self.axes:
            combos = [
                {**combo, axis.name: value}
                for combo in combos
                for value in axis.values
            ]
        return combos

    def points(self, root_seed: int = 0) -> List[CampaignPoint]:
        """Cross axes x seeds into ordered, concrete campaign points."""
        points: List[CampaignPoint] = []
        for combo in self.combinations():
            if isinstance(self.seeds, int):
                identity = json.dumps(
                    {"section": self.name, "kind": self.kind,
                     "params": combo},
                    sort_keys=True,
                )
                seeds = [
                    derive_seed(root_seed, identity, k)
                    for k in range(self.seeds)
                ]
            else:
                seeds = list(self.seeds)
            for seed in seeds:
                points.append(CampaignPoint(
                    section=self.name,
                    kind=self.kind,
                    index=len(points),
                    seed=int(seed),
                    params=dict(combo),
                ))
        return points

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.axes:
            data["axes"] = {
                axis.name: list(axis.values) for axis in self.axes
            }
        if self.params:
            data["params"] = dict(self.params)
        seeds = self.seeds
        data["seeds"] = seeds if isinstance(seeds, int) else list(seeds)
        return data


@dataclass
class CampaignSpec:
    """An ordered collection of sections sharing one root seed."""

    name: str = "campaign"
    sections: List[Section] = field(default_factory=list)
    root_seed: int = 0
    workers: int = 0  # spec-level default; CLI --workers overrides

    # -- builder API -------------------------------------------------------

    def section(
        self,
        name: str,
        kind: str,
        *,
        seeds: Union[int, Sequence[int]] = (0,),
        **params: Any,
    ) -> Section:
        """Append a section and return *it* (so ``.axis(...)`` chains)."""
        if any(existing.name == name for existing in self.sections):
            raise SpecError(f"duplicate section name {name!r}")
        sec = Section(name, kind, params=params, seeds=seeds)
        self.sections.append(sec)
        return sec

    def points(self) -> List[CampaignPoint]:
        out: List[CampaignPoint] = []
        for sec in self.sections:
            out.extend(sec.points(self.root_seed))
        return out

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "root_seed": self.root_seed,
            "workers": self.workers,
            "sections": [sec.to_dict() for sec in self.sections],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if not isinstance(data, dict):
            raise SpecError("a campaign spec must be a table/object")
        unknown = set(data) - {
            "name", "root_seed", "root-seed", "workers", "sections",
            "section",
        }
        if unknown:
            raise SpecError(
                f"unknown spec key(s): {', '.join(sorted(unknown))}"
            )
        # TOML idiom is [[section]]; JSON idiom is "sections": [...].
        raw_sections = data.get("sections", data.get("section", []))
        if not isinstance(raw_sections, list) or not raw_sections:
            raise SpecError("a spec needs at least one [[section]]")
        spec = cls(
            name=str(data.get("name", "campaign")),
            root_seed=int(data.get("root_seed",
                                   data.get("root-seed", 0))),
            workers=int(data.get("workers", 0)),
        )
        for entry in raw_sections:
            if not isinstance(entry, dict):
                raise SpecError("each section must be a table/object")
            extra = set(entry) - {"name", "kind", "axes", "params", "seeds"}
            if extra:
                raise SpecError(
                    f"unknown section key(s): {', '.join(sorted(extra))}"
                )
            if "kind" not in entry:
                raise SpecError("each section needs a kind")
            axes_data = entry.get("axes", {})
            if not isinstance(axes_data, dict):
                raise SpecError("section axes must be a table of lists")
            axes = []
            for axis_name, values in axes_data.items():
                if not isinstance(values, list):
                    raise SpecError(
                        f"axis {axis_name!r} must map to a list of values"
                    )
                axes.append(Axis(axis_name, tuple(values)))
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise SpecError("section params must be a table")
            sec = Section(
                str(entry.get("name", entry["kind"])),
                str(entry["kind"]),
                axes=axes,
                params=params,
                seeds=entry.get("seeds", (0,)),
            )
            if any(
                other.name == sec.name
                for other in spec.sections
            ):
                raise SpecError(f"duplicate section name {sec.name!r}")
            spec.sections.append(sec)
        return spec


# -- file loading ----------------------------------------------------------

def loads_spec(text: str, *, format: str = "toml") -> CampaignSpec:
    """Parse spec text.  ``format`` is ``"toml"`` or ``"json"``."""
    if format == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"bad JSON spec: {exc}") from exc
        return CampaignSpec.from_dict(data)
    if format != "toml":
        raise SpecError(f"unknown spec format {format!r}")
    try:
        import tomllib
    except ImportError as exc:  # Python < 3.11
        raise SpecError(
            "TOML specs need Python 3.11+ (tomllib); use a .json spec"
        ) from exc
    try:
        data = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"bad TOML spec: {exc}") from exc
    return CampaignSpec.from_dict(data)


def load_spec(path: str) -> CampaignSpec:
    """Load a spec file; ``.json`` selects JSON, anything else TOML."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    format = "json" if path.endswith(".json") else "toml"
    return loads_spec(text, format=format)


# -- TOML emission (the restricted spec subset only) -----------------------

def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)  # valid TOML basic string
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise SpecError(f"cannot emit {type(value).__name__} as TOML")


def dumps_spec(spec: CampaignSpec) -> str:
    """Emit a spec as TOML (the inverse of :func:`loads_spec`).

    Nested ``params`` tables (e.g. a fuzz section's ``sampler_params``)
    are emitted as TOML inline tables, which ``tomllib`` reads back.
    """
    out = io.StringIO()
    out.write(f"name = {_toml_value(spec.name)}\n")
    if spec.root_seed:
        out.write(f"root_seed = {_toml_value(spec.root_seed)}\n")
    if spec.workers:
        out.write(f"workers = {_toml_value(spec.workers)}\n")
    for sec in spec.sections:
        data = sec.to_dict()
        out.write("\n[[section]]\n")
        out.write(f"name = {_toml_value(data['name'])}\n")
        out.write(f"kind = {_toml_value(data['kind'])}\n")
        out.write(f"seeds = {_toml_value(data['seeds'])}\n")
        if data.get("axes"):
            out.write("[section.axes]\n")
            for axis_name, values in data["axes"].items():
                out.write(f"{axis_name} = {_toml_value(values)}\n")
        if data.get("params"):
            out.write("[section.params]\n")
            for key, value in data["params"].items():
                if isinstance(value, dict):
                    inline = ", ".join(
                        f"{k} = {_toml_value(v)}"
                        for k, v in value.items()
                    )
                    out.write(f"{key} = {{{inline}}}\n")
                else:
                    out.write(f"{key} = {_toml_value(value)}\n")
    return out.getvalue()
