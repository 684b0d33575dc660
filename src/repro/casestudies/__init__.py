"""The Table 2 case studies: the four audited routines, each in a C
build and a FaCT build.

Expected flag pattern (Table 2; ✓ = violation, f = found only with
forwarding-hazard detection)::

    Case Study                    C    FaCT
    curve25519-donna              -    -
    libsodium secretbox           ✓    -
    OpenSSL ssl3 record validate  ✓    f
    OpenSSL MEE-CBC               ✓    f
"""

from typing import Dict, List, Optional, Tuple

from .common import (CaseStudy, CaseVariant, TABLE2_BOUND_FWD,
                     TABLE2_BOUND_NO_FWD, evaluate_variant, render_table2,
                     repair_variant, table2)
from . import donna, mee_cbc, secretbox, ssl3_record

#: The four rows and their cells by name, built on the first call: each
#: builder compiles its routine, and the records are immutable values
#: (frozen, with a fresh ``Config`` per ``make_config()`` call).
_built: Optional[Tuple[Tuple[CaseStudy, ...], Dict[str, CaseVariant]]] = None


def _studies() -> Tuple[Tuple[CaseStudy, ...], Dict[str, CaseVariant]]:
    global _built
    if _built is None:
        studies = (donna.case_study(), secretbox.case_study(),
                   ssl3_record.case_study(), mee_cbc.case_study())
        _built = (studies, {variant.name: variant for study in studies
                            for variant in study.variants()})
    return _built


def all_case_studies() -> List[CaseStudy]:
    """All four Table 2 rows, paper order."""
    return list(_studies()[0])


def find_variant(name: str) -> Optional[CaseVariant]:
    """The Table 2 cell named ``name`` (e.g. ``"secretbox-c"``), if any."""
    return _studies()[1].get(name)


__all__ = [
    "CaseStudy", "CaseVariant", "TABLE2_BOUND_FWD", "TABLE2_BOUND_NO_FWD",
    "evaluate_variant", "render_table2", "repair_variant", "table2",
    "all_case_studies", "find_variant",
]
