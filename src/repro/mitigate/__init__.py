"""``repro.mitigate`` — counterexample-guided mitigation synthesis.

Closes the detect→harden→re-verify loop: Pitchfork's violation
witnesses are localized to the responsible program points
(:mod:`~repro.mitigate.localize`), repaired per site with targeted
fences or SLH-style masking (:mod:`~repro.mitigate.passes`), and the
propose→re-verify→shrink loop (:mod:`~repro.mitigate.synth`) drives
the placement down to a locally minimal one, emitting a
machine-checkable repair certificate.

See DESIGN.md ("Mitigation synthesis") for the soundness argument and
the shrink invariant.
"""

from .localize import LocalizeStats, ViolationSite, localize, \
    localize_all, replay_attribution
from .passes import (SLH_PREFIX, AppliedMitigation, MitigationError,
                     apply_fence, apply_slh, remove_fence, remove_slh)
from .synth import (REPAIR_POLICIES, REPAIR_STATUSES, MitigationSynthesizer,
                    RepairResult, RepairStep, SynthesisOptions, repair,
                    verify_certificate)

__all__ = [
    "AppliedMitigation", "LocalizeStats", "MitigationError",
    "MitigationSynthesizer", "REPAIR_POLICIES", "REPAIR_STATUSES",
    "RepairResult",
    "RepairStep", "SLH_PREFIX", "SynthesisOptions", "ViolationSite",
    "apply_fence", "apply_slh", "localize", "localize_all",
    "remove_fence", "remove_slh", "repair", "replay_attribution",
    "verify_certificate",
]
