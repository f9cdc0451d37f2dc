"""repro.transfer — cross-program rule and model transfer.

The paper's §VI extension trains one tree across several inputs of the
*same* program; this subsystem takes the next step and moves learned
design knowledge across *different programs*:

* :mod:`repro.transfer.signature` — structural :class:`OpSignature`
  identities for operations (action kind, device, comm-group topology
  and arity, position in the dependence chain), replacing fragile
  name-stripping as the cross-workload identity, plus the
  :class:`SignatureMatcher` that threads them through
  :mod:`repro.rules.score`.
* :mod:`repro.transfer.scoring` — discrimination-aware transfer scores:
  a rule is judged by the *gap* between its satisfaction on the target's
  fast and slow schedule classes (plus coverage), so an always-true rule
  scores ~0 instead of transferring perfectly.
* :mod:`repro.transfer.union` — union-feature training: several
  workloads' labeled schedules projected into one signature-canonical
  feature space and a single tree trained on the union, evaluated on a
  held-out workload.
* :mod:`repro.transfer.matrix` — the leave-one-workload-out transfer
  matrix experiment (source × target discrimination grid, per-target
  vacuous-rule controls, and the union-tree accuracy row), plus the
  grid's do-not-transfer advisories alone for publishing.
"""

from repro.transfer.matrix import (
    DO_NOT_TRANSFER_THRESHOLD,
    TransferCell,
    TransferMatrixResult,
    UnionRow,
    run_transfer_matrix,
    transfer_matrix_from,
)
from repro.transfer.scoring import (
    DiscriminationScore,
    discrimination_summary,
    score_classes,
    score_transfer,
)
from repro.transfer.signature import (
    OpSignature,
    SignatureMatcher,
    program_signatures,
    signature_fingerprint,
)
from repro.transfer.union import UnionTrainingResult, train_union

__all__ = [
    "DO_NOT_TRANSFER_THRESHOLD",
    "DiscriminationScore",
    "OpSignature",
    "SignatureMatcher",
    "TransferCell",
    "TransferMatrixResult",
    "UnionRow",
    "UnionTrainingResult",
    "discrimination_summary",
    "program_signatures",
    "run_transfer_matrix",
    "score_classes",
    "score_transfer",
    "signature_fingerprint",
    "train_union",
    "transfer_matrix_from",
]
