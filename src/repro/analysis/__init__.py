"""Analysis tooling: mechanical checks of the paper's claims.

- :mod:`repro.analysis.fastlin` -- the high-performance linearizability
  oracle: bitmask Wing-Gong search with forced-operation pruning,
  P-compositional partitioning, structured ``undecided`` budgets and
  the JSON payload codec batched checks travel in (the ``lin``
  campaign kind); keeps the naive Wing-Gong search as the
  differential reference.
- :mod:`repro.analysis.streamlin` -- the same verdict online, over an
  event stream with a rolling verified frontier.
- :mod:`repro.analysis.specs` -- sequential specifications (register,
  max register, snapshot, counter, and their auditable variants).
- :mod:`repro.analysis.effectiveness` -- detects *effective* reads
  (Definition 2) from traces via the characterisation of Claim 4/35.
- :mod:`repro.analysis.audit_checks` -- audit exactness oracle: an audit
  must report exactly the effective reads linearized before it; one
  windowed oracle, fed a live stream or a recorded history in full.
- :mod:`repro.analysis.phases` -- validates the E/D phase structure of
  executions (Lemma 1 / Lemma 25), per-reader fetch&xor uniqueness
  (Lemma 17) and the (seq, value) walk (Lemma 18 / Lemma 27).
- :mod:`repro.analysis.leakage` -- honest-but-curious leakage: paired
  indistinguishable executions (Lemmas 6, 7, 38) and empirical attacker
  advantage.
"""

from repro.analysis.audit_checks import (
    AuditViolation,
    WindowedAuditOracle,
    check_audit_exactness,
    check_audit_monotone,
    expected_audit_set,
    strip_version,
    windowed_audit_oracle,
)
from repro.analysis.fastlin import (
    LIN_FAIL,
    LIN_OK,
    LIN_UNDECIDED,
    PENDING,
    FastLinChecker,
    LinearizationResult,
    SeqSpec,
    check_history,
    op_from_payload,
    op_to_payload,
    spec_from_name,
    spec_names,
)
from repro.analysis.effectiveness import (
    EffectiveRead,
    classify_read,
    effective_reads,
)
from repro.analysis.leakage import (
    AttackOutcome,
    empirical_advantage,
    first_divergence,
    membership_guess,
    observed_values,
    projections_equal,
    success_rate,
    tracking_bits_seen,
)
from repro.analysis.phases import (
    PhaseViolation,
    check_fetch_xor_uniqueness,
    check_phase_structure,
    check_value_sequence,
    phase_intervals,
)
from repro.analysis.specs import (
    auditable_max_register_spec,
    auditable_register_spec,
    counter_object_spec,
    max_register_spec,
    register_array_spec,
    register_spec,
    snapshot_spec,
    stream_max_register_spec,
    stream_register_spec,
    stream_snapshot_spec,
    tag_ops_with_pid,
    tag_reads,
    versioned_spec,
)
from repro.analysis.streamlin import (
    LIN_PARTIAL,
    StreamingLinChecker,
    StreamProgress,
    StreamVerdict,
    check_history_streaming,
)

__all__ = [
    "LIN_FAIL",
    "LIN_OK",
    "LIN_PARTIAL",
    "LIN_UNDECIDED",
    "PENDING",
    "AttackOutcome",
    "AuditViolation",
    "EffectiveRead",
    "FastLinChecker",
    "LinearizationResult",
    "PhaseViolation",
    "SeqSpec",
    "StreamProgress",
    "StreamVerdict",
    "StreamingLinChecker",
    "WindowedAuditOracle",
    "auditable_max_register_spec",
    "auditable_register_spec",
    "check_audit_exactness",
    "check_audit_monotone",
    "check_fetch_xor_uniqueness",
    "check_history",
    "check_history_streaming",
    "check_phase_structure",
    "check_value_sequence",
    "classify_read",
    "counter_object_spec",
    "effective_reads",
    "empirical_advantage",
    "expected_audit_set",
    "first_divergence",
    "max_register_spec",
    "membership_guess",
    "observed_values",
    "op_from_payload",
    "op_to_payload",
    "phase_intervals",
    "projections_equal",
    "register_array_spec",
    "register_spec",
    "snapshot_spec",
    "spec_from_name",
    "spec_names",
    "stream_max_register_spec",
    "stream_register_spec",
    "stream_snapshot_spec",
    "strip_version",
    "success_rate",
    "windowed_audit_oracle",
    "tag_ops_with_pid",
    "tag_reads",
    "tracking_bits_seen",
    "versioned_spec",
]
