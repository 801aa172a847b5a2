"""Record semantics of every frozen value type: equality and hash over the
fields, the field-by-field repr, immutability, pickling and ``replace``."""

import copy
import pickle
from fractions import Fraction

import pytest

from eqloc.atlas import (
    FixedPointAtlas,
    FixedPointDatum,
    GroupSpec,
    RootSystemData,
    SubmanifoldRestriction,
    sphere_atlas,
)
from eqloc.engines import (
    ConventionProfile,
    ExactValue,
    PointEntry,
    ReductionReport,
    reduce_symplectic_circle,
)
from eqloc.errors import ValidationError
from eqloc.exact import ComplexRational, LaurentSeries, SymbolicConstant
from eqloc.localize import LocalizationResult
from eqloc.oracle import (
    DecayRow,
    DecayTable,
    LadderRow,
    MollifierConfig,
    OracleIntegrand,
    OracleResult,
    ShiftRow,
    ShiftTable,
)
from eqloc.record import Record, replace

ONE = LaurentSeries.const(("y",), 1)

#: a builder of one equal record per call, for each record type
BUILDERS = {
    SymbolicConstant: lambda: SymbolicConstant(Fraction(3, 2), 1, 2, 3),
    RootSystemData: lambda: RootSystemData(((2,),), 2),
    GroupSpec: GroupSpec.circle,
    FixedPointDatum: lambda: sphere_atlas().fixed_points[0],
    SubmanifoldRestriction: lambda: SubmanifoldRestriction(2),
    FixedPointAtlas: sphere_atlas,
    ConventionProfile: lambda: ConventionProfile.from_volume(
        "default", SymbolicConstant(2, pi_pow=1)
    ),
    ExactValue: lambda: ExactValue(SymbolicConstant(1), ComplexRational(1, 2)),
    PointEntry: lambda: PointEntry("north", True, ComplexRational(1, 0)),
    ReductionReport: lambda: reduce_symplectic_circle(sphere_atlas()),
    LocalizationResult: lambda: LocalizationResult(ONE, (("north", ONE),)),
    MollifierConfig: MollifierConfig,
    OracleIntegrand: lambda: OracleIntegrand(abs, 2.0),
    LadderRow: lambda: LadderRow(1.0, 1 + 2j, 1e-3, 16),
    OracleResult: lambda: OracleResult((LadderRow(1.0, 1j, 0.0, 16),), 1j, "last_value", 16),
    DecayRow: lambda: DecayRow(1.0, 0.5j, None),
    DecayTable: lambda: DecayTable(1.0, 2, (DecayRow(1.0, 0.5j, 2.0),), 0.1, True),
    ShiftRow: lambda: ShiftRow(0.01, 1e-3, True),
    ShiftTable: lambda: ShiftTable(100.0, 1.0, 1 + 0j, (ShiftRow(0.01, 0.0, True),), True),
}


def test_every_record_type_is_built():
    assert len(BUILDERS) == 19
    assert all(issubclass(cls, Record) for cls in BUILDERS)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda c: c.__name__)
class TestRecord:
    def test_equal_fields_give_equal_objects_and_hashes(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        assert type(a) is cls
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert a != object()
        first = cls.__slots__[0]
        assert replace(a, **{first: getattr(a, first)}) == a

    def test_repr_lists_every_field(self, cls):
        a = BUILDERS[cls]()
        fields = ", ".join(f"{f}={getattr(a, f)!r}" for f in cls.__slots__)
        assert repr(a) == f"{cls.__name__}({fields})"

    def test_assignment_and_deletion_raise(self, cls):
        a = BUILDERS[cls]()
        first = cls.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(a, first, None)
        with pytest.raises(AttributeError):
            delattr(a, first)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert not hasattr(a, "__dict__")

    def test_pickle_and_deepcopy_round_trip(self, cls):
        a = BUILDERS[cls]()
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a), copy.copy(a)):
            assert type(b) is cls and b == a

    def test_replace_refuses_an_unknown_field(self, cls):
        with pytest.raises(TypeError, match="has no field 'nope'"):
            replace(BUILDERS[cls](), nope=1)


def test_replace_changes_only_the_named_fields_and_reruns_the_checks():
    base = MollifierConfig()
    cfg = replace(base, extrapolation="richardson", max_panels=64)
    assert (cfg.extrapolation, cfg.max_panels) == ("richardson", 64)
    assert cfg.t_ladder == base.t_ladder
    with pytest.raises(ValidationError, match="max_panels"):
        replace(base, max_panels=3)
    assert replace(SymbolicConstant(1), sqrt2_pow=2) == SymbolicConstant(2)


REPRS = [
    (
        GroupSpec.circle,
        "GroupSpec(kind='circle', rank=1, s=1, vol=SymbolicConstant(q=Fraction(2, 1), "
        "i_pow=0, pi_pow=1, sqrt2_pow=0), root_system=None)",
    ),
    (
        lambda: sphere_atlas().fixed_points[0],
        "FixedPointDatum(name='north', moment=(Fraction(1, 1),), weights=((1,),), "
        "eta=LaurentSeries(('y',), '(1,0)', trunc=(None,)), moment_hk=None, "
        "mode='structured', raw_contribution=None)",
    ),
    (
        lambda: reduce_symplectic_circle(sphere_atlas()),
        "ReductionReport(path='symplectic_circle', geometry='symplectic', rank=1, "
        "profile=ConventionProfile(name='default', vol_circle=SymbolicConstant("
        "q=Fraction(2, 1), i_pow=0, pi_pow=1, sqrt2_pow=0), prefactor_symplectic_circle="
        "SymbolicConstant(q=Fraction(1, 4), i_pow=0, pi_pow=-2, sqrt2_pow=0), "
        "prefactor_hk_circle=SymbolicConstant(q=Fraction(-1, 24), i_pow=0, pi_pow=-2, "
        "sqrt2_pow=1)), variable_order=('y',), eta_mode='atlas', contributions=("
        "PointEntry(name='north', selected=True, coefficient=ComplexRational("
        "re=Fraction(1, 1), im=Fraction(0, 1))), PointEntry(name='south', selected=False, "
        "coefficient=ComplexRational(re=Fraction(0, 1), im=Fraction(0, 1)))), "
        "raw_coefficient=ComplexRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
        "degree_factor=1, prefactor=SymbolicConstant(q=Fraction(1, 4), i_pow=0, "
        "pi_pow=-2, sqrt2_pow=0), quotient_integral=ExactValue(unit=SymbolicConstant("
        "q=Fraction(1, 4), i_pow=0, pi_pow=-2, sqrt2_pow=0), coeff=ComplexRational("
        "re=Fraction(1, 1), im=Fraction(0, 1))), inserted_polynomial=None, "
        "weyl_divisor=None, oracle_comparison=None)",
    ),
]


@pytest.mark.parametrize("build, text", REPRS)
def test_literal_reprs(build, text):
    assert repr(build()) == text
