"""Reference root data for the two bundled compact groups.

Roots are integer covectors on the maximal torus in the atlas variable
basis.  Only these two tables ship; anything else is user-supplied data.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from .atlas import GroupSpec, RootSystemData
from .errors import ValidationError
from .exact import SymbolicConstant

# rank 1; one positive root acting with weight 2; 3-dimensional group
SU2_ROOTS = RootSystemData(positive_roots=((2,),), weyl_order=2)

# rank 2; the single positive root y1 - y2; 4-dimensional group
U2_ROOTS = RootSystemData(positive_roots=((1, -1),), weyl_order=2)

_TABLES: Dict[str, dict] = {
    "SU(2)": {"rank": 1, "s": 3, "roots": SU2_ROOTS},
    "U(2)": {"rank": 2, "s": 4, "roots": U2_ROOTS},
}


def known_groups() -> list:
    return sorted(_TABLES)


def _entry(name: str) -> dict:
    entry = _TABLES.get(name)
    if entry is None:
        known = known_groups()
        raise ValidationError(f"unknown group {name!r}; known: {known}", group=name, known=known)
    return entry


def root_system(name: str) -> RootSystemData:
    return _entry(name)["roots"]


def group_spec(name: str, vol_circle: Optional[SymbolicConstant] = None) -> GroupSpec:
    """GroupSpec for a bundled compact group, presented through its maximal
    torus.  vol is the torus volume: vol_circle per rank."""
    entry = _entry(name)
    if vol_circle is None:
        vol_circle = SymbolicConstant(Fraction(2), pi_pow=1)
    return GroupSpec(
        kind="compact_with_torus",
        rank=entry["rank"],
        s=entry["s"],
        vol=vol_circle ** entry["rank"],
        root_system=entry["roots"],
    )


def table_json_dict(name: str) -> dict:
    entry = _entry(name)
    roots: RootSystemData = entry["roots"]
    return {
        "name": name,
        "rank": entry["rank"],
        "s": entry["s"],
        "positive_roots": [list(a) for a in roots.positive_roots],
        "weyl_order": roots.weyl_order,
    }
