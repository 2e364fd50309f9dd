"""Campaign executors: one protocol, five subsystems.

An :class:`Executor` turns one :class:`~repro.campaign.spec.CampaignPoint`
into a canonical JSON payload carrying a ``verdict`` -- ``"PASS"``,
``"FAIL"`` or ``"PARTIAL"`` -- plus deterministic evidence counters.
Each executor wraps one subsystem entry point (``explore`` for
``check``, ``run_campaign`` for ``fuzz``, ``run_stress`` for
``stress``, the sweep task functions for ``sweep``,
``FastLinChecker`` for ``lin``) and owns that kind's validation and
verdict rule; the ``sweep``, ``check``, ``fuzz``, ``stress`` and
``lin`` subcommands validate and judge with the same rules.

Determinism: payloads must be pure functions of ``(seed, params)`` so
the engine's byte-identical JSONL contract holds for campaign
checkpoints.  The stress executor therefore strips all wall-clock
fields (throughput, latency) from its payload -- timing belongs to the
interactive ``repro stress`` report, never to campaign records -- and
``serial_only`` keeps stress points out of the worker pool: the process
runtime spawns OS processes, which daemonic pool workers may not, and
thread-runtime timing under pool contention would be meaningless.

``campaign_point_task`` is the single module-level engine task function
(picklable by reference) through which every campaign point runs.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.campaign.spec import SpecError

PASS, FAIL, PARTIAL = "PASS", "FAIL", "PARTIAL"


class Executor:
    """One subsystem's adapter onto the campaign point contract.

    Subclasses set ``kind`` (the spec's section ``kind`` value) and
    implement :meth:`execute`; ``validate_point`` may reject bad params
    at compile time with :class:`~repro.campaign.spec.SpecError`, before
    any work runs.  Input only a run can judge (a lin history its spec
    cannot apply) makes :meth:`execute` raise ``SpecError`` instead;
    :func:`repro.campaign.run.run_section` names the point.
    ``serial_only`` forces the section onto one worker (see the module
    docstring).
    """

    kind: str = ""
    serial_only: bool = False

    def validate_point(self, params: Dict[str, Any]) -> None:
        """Raise :class:`SpecError` for params this kind cannot run."""

    def execute(self, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError


_REGISTRY: Dict[str, Executor] = {}


def register_executor(executor: Executor) -> Executor:
    if not executor.kind:
        raise ValueError("executor needs a kind")
    _REGISTRY[executor.kind] = executor
    return executor


def executor_for(kind: str) -> Executor:
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SpecError(
            f"unknown section kind {kind!r} (known: {known})"
        ) from None


def executor_names() -> List[str]:
    return sorted(_REGISTRY)


def campaign_point_task(
    seed: int, kind: str = "check", point: Dict[str, Any] = None
) -> Dict[str, Any]:
    """The engine task function every campaign point dispatches through."""
    return _REGISTRY[kind].execute(seed, dict(point or {}))


def _require(params: Dict[str, Any], key: str, kind: str) -> None:
    if key not in params:
        raise SpecError(
            f"a {kind!r} point needs a {key!r} value "
            "(as an axis or a param)"
        )


def _unknown(params: Dict[str, Any], allowed, kind: str) -> None:
    extra = set(params) - set(allowed)
    if extra:
        raise SpecError(
            f"unknown {kind!r} point param(s): "
            f"{', '.join(sorted(extra))} (allowed: "
            f"{', '.join(sorted(allowed))})"
        )


def _check_count(kind: str, key: str, value: Any, floor: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise SpecError(
            f"{kind!r} point {key} must be an int >= {floor} (got {value!r})"
        )


class CheckExecutor(Executor):
    """Model checking: one point = one scenario explored to its budgets.

    The ``seed`` is part of the record but unused -- exploration is
    exhaustive, not sampled.
    """

    kind = "check"
    _ALLOWED = ("scenario", "max_executions", "max_depth", "reduce")

    def validate_point(self, params: Dict[str, Any]) -> None:
        _require(params, "scenario", self.kind)
        _unknown(params, self._ALLOWED, self.kind)
        from repro.mc.scenarios import scenario_names

        if params["scenario"] not in scenario_names():
            raise SpecError(
                f"unknown scenario {params['scenario']!r} "
                "(see python -m repro check --list)"
            )

    def execute(self, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.mc import explore
        from repro.mc.scenarios import get_scenario

        factory, check = get_scenario(params["scenario"])()
        return self.explore_point(
            params, lambda **settings: explore(factory, check, **settings)
        )

    @staticmethod
    def explore_point(params: Dict[str, Any], explore_fn) -> Dict[str, Any]:
        """Explore one point with ``explore_fn(**settings)`` (``explore``,
        or ``repro check``'s subtree fan-out) and judge the report."""
        from repro.mc import ExplorationBudgetExceeded

        budget_note = None
        try:
            report = explore_fn(
                max_executions=params.get("max_executions", 300_000),
                max_depth=params.get("max_depth", 200),
                reduce=params.get("reduce", True),
            )
        except ExplorationBudgetExceeded as exc:
            report = exc.report
            budget_note = str(exc)
        # A proven violation outranks an exhausted budget (the repro
        # check convention): partial coverage that found a bug is FAIL.
        verdict = (
            FAIL if report.violations
            else (PARTIAL if budget_note else PASS)
        )
        return {
            "verdict": verdict,
            "scenario": params["scenario"],
            "executions": report.executions,
            "distinct_states": report.distinct_states,
            "violations": [str(v) for v in report.violations[:5]],
            "violation_count": len(report.violation_details),
            "verdicts": sorted(report.verdicts),
            "budget": budget_note,
        }

register_executor(CheckExecutor())


class FuzzExecutor(Executor):
    """Schedule fuzzing: one point = one seeded mini-campaign of one
    target, batched exactly as ``repro fuzz --seed <point seed>`` would
    batch it, so violations (and their shrunk counterexample traces,
    which ride along in the payload) match the standalone CLI."""

    kind = "fuzz"
    _ALLOWED = (
        "target", "sampler", "schedules", "batch", "max_steps",
        "shrink", "shrink_checks", "sampler_params", "stop_on_violation",
    )

    def validate_point(self, params: Dict[str, Any]) -> None:
        _require(params, "target", self.kind)
        _unknown(params, self._ALLOWED, self.kind)
        from repro.fuzz import sampler_names, target_names

        if params["target"] not in target_names():
            raise SpecError(
                f"unknown fuzz target {params['target']!r} "
                "(see python -m repro fuzz --list)"
            )
        sampler = params.get("sampler", "uniform")
        if sampler not in sampler_names():
            raise SpecError(f"unknown sampler {sampler!r}")
        for key in ("schedules", "batch"):
            _check_count(self.kind, key, params.get(key, 1), 1)
        from repro.fuzz.samplers import sampler_from_name

        try:
            sampler_from_name(sampler, **(params.get("sampler_params") or {}))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad {sampler!r} sampler params: {exc}") from None

    def execute(self, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.fuzz.campaign import run_campaign

        # Every param but the target is a run_campaign setting.
        settings = {k: v for k, v in params.items() if k != "target"}
        report = run_campaign(
            [params["target"]], root_seed=seed, workers=1, **settings
        )
        return {
            "verdict": report.verdict,
            "target": params["target"],
            "sampler": params.get("sampler", "uniform"),
            "schedules": report.schedules,
            "steps": report.steps,
            "incomplete": report.incomplete,
            "violations": report.violations,
            "verdicts": report.verdicts,
            "first_violation": report.first_violation,
        }

register_executor(FuzzExecutor())


class StressExecutor(Executor):
    """Runtime stress: one point = one bounded, validated stress run.

    Campaign stress points require an op budget (``ops``): duration
    runs measure wall-clock throughput, which cannot produce
    deterministic records.  The payload keeps only the verdict-bearing
    fields; throughput and latency stay in the interactive CLI report.
    """

    kind = "stress"
    serial_only = True
    _ALLOWED = (
        "object", "runtime", "threads", "readers", "writers",
        "auditors", "ops", "faults", "fault_rate", "validate",
        "max_substrate", "snapshot_substrate",
    )

    def validate_point(self, params: Dict[str, Any]) -> None:
        _require(params, "object", self.kind)
        _unknown(params, self._ALLOWED, self.kind)
        ops = params.get("ops", 16)
        if not isinstance(ops, int) or ops < 1:
            raise SpecError(
                "stress points need a bounded per-worker op budget "
                "(ops >= 1); duration runs are not deterministic"
            )
        from repro.rt.stress import check_stress_options

        try:
            check_stress_options(
                params["object"], params.get("runtime", "thread"),
                params.get("threads", 4), params.get("readers"),
                params.get("writers"), params.get("auditors"), ops,
                faults=params.get("faults") or None,
            )
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    @staticmethod
    def judge(report) -> str:
        """A stress report's verdict: the
        :func:`~repro.rt.stress.recorded_verdict` of its validation."""
        from repro.rt.stress import recorded_verdict

        return recorded_verdict(report.lin_status, report.audit_ok)

    def execute(self, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.rt import run_stress

        # Every param is a run_stress argument; only the roster and
        # op budget defaults are the campaign's own.
        report = run_stress(
            **{"threads": 4, "ops": 16, **params,
               "faults": params.get("faults") or None},
            seed=seed,
            record_latency=False,
        )
        return {
            "verdict": self.judge(report),
            "object": report.object,
            "runtime": report.runtime,
            "readers": report.readers,
            "writers": report.writers,
            "auditors": report.auditors,
            "ops_budget": report.ops_budget,
            "validated": report.validated,
            "lin_ok": report.lin_ok,
            "lin_status": report.lin_status,
            "audit_ok": report.audit_ok,
            "faults": report.faults,
        }

register_executor(StressExecutor())


class SweepExecutor(Executor):
    """Seeded sweeps: one point = one fully-checked seeded execution
    (the exact granularity of ``repro sweep``'s engine tasks)."""

    kind = "sweep"
    _REGISTER = (
        "num_readers", "num_writers", "num_auditors", "reads_per_reader",
        "writes_per_writer", "audits_per_auditor",
    )
    _SNAPSHOT = (
        "components", "num_scanners", "updates_per_component",
        "scans_per_scanner", "substrate",
    )
    #: Counts the objects cannot be built with zero of.
    _AT_LEAST_ONE = ("num_readers", "components", "num_scanners")

    def validate_point(self, params: Dict[str, Any]) -> None:
        _require(params, "object", self.kind)
        kind_ = params["object"]
        if kind_ == "register":
            allowed = ("object",) + self._REGISTER
        elif kind_ == "snapshot":
            allowed = ("object",) + self._SNAPSHOT
        else:
            raise SpecError(
                f"unknown sweep object {kind_!r} "
                "(choose register or snapshot)"
            )
        _unknown(params, allowed, self.kind)
        for key, value in params.items():
            if key not in ("object", "substrate"):
                floor = 1 if key in self._AT_LEAST_ONE else 0
                _check_count(self.kind, key, value, floor)

    def execute(self, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.engine.tasks import (
            register_sweep_task,
            snapshot_sweep_task,
        )

        kwargs = {k: v for k, v in params.items() if k != "object"}
        if params["object"] == "register":
            payload = register_sweep_task(seed, **kwargs)
        else:
            payload = snapshot_sweep_task(seed, **kwargs)
        fails = [
            key for key in
            ("lin_fail", "audit_fail", "structural_fail")
            if payload.get(key)
        ]
        payload = dict(payload)
        payload["verdict"] = FAIL if fails else PASS
        payload["object"] = params["object"]
        return payload

register_executor(SweepExecutor())


class LinExecutor(Executor):
    """Batched linearizability verdicts: one point = one recorded
    history checked by fastlin against a named spec (``repro lin`` runs
    one point per input line).

    A point's ``history`` is either a list of operation payloads
    (:func:`repro.analysis.fastlin.op_to_payload`) or a record
    ``{"history": [...], "spec": ..., "spec_params": {...}}``.  The
    spec precedence rule lives here, once (:meth:`resolve`): a section
    ``spec`` (with its ``spec_params``) overrides the record's spec,
    otherwise the record's applies, otherwise :attr:`DEFAULT_SPEC`.
    The ``seed`` is unused: the history is already recorded.
    """

    kind = "lin"
    _ALLOWED = ("history", "spec", "spec_params", "max_nodes")
    DEFAULT_SPEC = "register"

    @classmethod
    def resolve(cls, params: Dict[str, Any]):
        """A point's ``(payloads, spec name, spec params)``."""
        history = params["history"]
        record = history if isinstance(history, dict) else {
            "history": history
        }
        source = params if "spec" in params else record
        return (
            record.get("history"),
            source.get("spec", cls.DEFAULT_SPEC),
            source.get("spec_params"),
        )

    def validate_point(self, params: Dict[str, Any]) -> None:
        _require(params, "history", self.kind)
        _unknown(params, self._ALLOWED, self.kind)
        if "spec_params" in params and "spec" not in params:
            raise SpecError("a 'lin' point's spec_params need a spec")
        if "max_nodes" in params:
            _check_count(self.kind, "max_nodes", params["max_nodes"], 1)
        payloads, spec, spec_params = self.resolve(params)
        if not isinstance(payloads, list):
            raise SpecError(
                "a lin history is a JSON array of operation payloads "
                "or an object with a \"history\" array"
            )
        _decode_ops(payloads)
        from repro.analysis.fastlin import spec_from_name, spec_names

        if not isinstance(spec, str) or spec not in spec_names():
            raise SpecError(
                f"unknown lin spec {spec!r} "
                "(see python -m repro lin --list-specs)"
            )
        if spec_params is not None and not isinstance(spec_params, dict):
            raise SpecError(
                f"lin spec_params must be a JSON object (got {spec_params!r})"
            )
        try:
            spec_from_name(spec, **(spec_params or {}))
        except (TypeError, ValueError) as exc:
            raise SpecError(f"bad {spec!r} spec params: {exc}") from None

    def execute(self, seed: int, params: Dict[str, Any]) -> Dict[str, Any]:
        from repro.analysis.fastlin import (
            DEFAULT_MAX_NODES,
            LIN_FAIL,
            LIN_OK,
            FastLinChecker,
            spec_from_name,
        )

        payloads, spec, spec_params = self.resolve(params)
        ops = _decode_ops(payloads)
        checker = FastLinChecker(
            spec_from_name(spec, **(spec_params or {})),
            max_nodes=params.get("max_nodes", DEFAULT_MAX_NODES),
        )
        try:
            result = checker.check(ops)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            # The spec's apply choked on an operation: the history
            # does not fit the spec (e.g. a read by a pid missing from
            # an auditable spec's reader_index).  That is an input
            # error, not a linearizability verdict.
            raise SpecError(
                f"spec {spec!r} cannot apply this history "
                f"({type(exc).__name__}: {exc}); auditable specs need "
                "every reading pid in their reader_index"
            ) from None
        status = result.status
        return {
            "verdict": (
                PASS if status == LIN_OK
                else (FAIL if status == LIN_FAIL else PARTIAL)
            ),
            "status": status,
            "explored": result.explored,
            "partitions": result.partitions,
            "ops": len(ops),
        }


_PAYLOAD_KEYS = (
    "pid", "op_id", "name", "args", "invoke", "response", "result",
)


def _decode_ops(payloads) -> list:
    """Decode a lin point's payloads, raising :class:`SpecError` for
    anything the checker could not search."""
    from repro.analysis.fastlin import op_from_payload

    ops = []
    for payload in payloads:
        try:
            if not (isinstance(payload, dict)
                    and all(key in payload for key in _PAYLOAD_KEYS)):
                raise ValueError(f"need {'/'.join(_PAYLOAD_KEYS)} keys")
            op = op_from_payload(payload)
            if not (_is_index(op.invoke_index)
                    and (op.response_index is None
                         or _is_index(op.response_index))):
                raise ValueError("invoke/response must be event indices")
            if not isinstance(op.args, tuple):
                raise ValueError("args must encode a tuple")
            hash((op.name, op.args, op.result))  # the search memo's key
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"not an operation payload ({exc}; see "
                "repro.analysis.fastlin.op_to_payload)"
            ) from None
        ops.append(op)
    return ops


def _is_index(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


register_executor(LinExecutor())
