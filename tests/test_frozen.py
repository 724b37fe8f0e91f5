"""The value types of every module behave as frozen dataclasses did: the
same repr, type-strict equality, hash over the fields, keyword
construction with defaults, __post_init__ checks, no assignment, and a
pickle round trip. Matrix fields hold small tuples here; the types do not
look at what their fields hold."""

import pickle
from fractions import Fraction

import pytest

from kostant.cmjd import CmjdReport, CmjdTriple
from kostant.errors import NonPositive
from kostant.linalg import SpectralDecomposition, Spectrum
from kostant.order import (
    LogValue,
    LogVector,
    OrderVerdict,
    SeparatingFunctional,
    SeparatingWitness,
    TTransformCertificate,
    _LogRatio,
)
from kostant.selfcheck import SuiteResult
from kostant.serialize import MatrixInput
from kostant.symchar import (
    Compose,
    DirectSum,
    Ext,
    ModuliVector,
    Partition,
    Schur,
    Sym,
    Tensor,
)

LOGS = LogVector((1.0, -1.0))
SPECTRUM = Spectrum(clusters=((2j, 1), (0.5, 1)), cluster_tol=1e-8)

# each value type, with its repr as dataclasses wrote it
VALUES = [
    (ModuliVector((2.0, Fraction(1, 2))),
     "ModuliVector(values=(2.0, Fraction(1, 2)))"),
    (Partition((2, 1, 0)), "Partition(parts=(2, 1))"),
    (Sym(2), "Sym(m=2)"),
    (Ext(1), "Ext(k=1)"),
    (Schur(Partition((2, 1))), "Schur(shape=Partition(parts=(2, 1)))"),
    (Tensor(Sym(1), Ext(2)), "Tensor(left=Sym(m=1), right=Ext(k=2))"),
    # value types in a tuple field, nested two deep
    (DirectSum((Sym(0), Compose(Sym(1), Ext(0)))),
     "DirectSum(parts=(Sym(m=0), Compose(outer=Sym(m=1), inner=Ext(k=0))))"),
    (Compose(outer=Sym(m=2), inner=Ext(k=1)),
     "Compose(outer=Sym(m=2), inner=Ext(k=1))"),
    (LOGS, "LogVector(values=(1.0, -1.0))"),
    (OrderVerdict("LEQ", failing_level=1),
     "OrderVerdict(relation='LEQ', failing_level=1)"),
    (TTransformCertificate(steps=((0, 1, 0.5),), start=LOGS, end=LogVector((0.0, 0.0))),
     "TTransformCertificate(steps=((0, 1, 0.5),), start=LogVector(values=(1.0, -1.0)), "
     "end=LogVector(values=(0.0, 0.0)))"),
    (SeparatingFunctional(k=1, margin=0.5, hull_max=1.0, value_at_y=1.5),
     "SeparatingFunctional(k=1, margin=0.5, hull_max=1.0, value_at_y=1.5)"),
    (SeparatingWitness(k=1, m=1, spec=Compose(Sym(1), Ext(1)), chi_1=Fraction(5, 2),
                       chi_2=LogValue(1.5), paper_bound_m=7, dimension=2),
     "SeparatingWitness(k=1, m=1, spec=Compose(outer=Sym(m=1), inner=Ext(k=1)), "
     "chi_1=Fraction(5, 2), chi_2=LogValue(log=1.5), paper_bound_m=7, dimension=2)"),
    (LogValue(800.0), "LogValue(log=800.0)"),
    (_LogRatio.of(Fraction(3), Fraction(2)),
     "_LogRatio(ratio=Fraction(3, 2), log=0.4054651081081644, "
     "magnitude=0.4054651081081644)"),
    (MatrixInput(matrix=((1, 0), (0, 1)), moduli=None),
     "MatrixInput(matrix=((1, 0), (0, 1)), moduli=None)"),
    (SPECTRUM, "Spectrum(clusters=((2j, 1), (0.5, 1)), cluster_tol=1e-08)"),
    (SpectralDecomposition(spectrum=SPECTRUM, v=(1,), w=(1,), t=(2,),
                           blocks=(slice(0, 1, None),), labels=(0,), residual=0.0),
     "SpectralDecomposition(spectrum=Spectrum(clusters=((2j, 1), (0.5, 1)), "
     "cluster_tol=1e-08), v=(1,), w=(1,), t=(2,), blocks=(slice(0, 1, None),), "
     "labels=(0,), residual=0.0)"),
    (CmjdTriple(elliptic=(1,), hyperbolic=(2,), unipotent=(1,), residuals={"commutation": 0.0}),
     "CmjdTriple(elliptic=(1,), hyperbolic=(2,), unipotent=(1,), "
     "residuals={'commutation': 0.0})"),
    (CmjdReport(residuals={"commutation": 0.0}, checks={"commutation": True}, tol=1e-8),
     "CmjdReport(residuals={'commutation': 0.0}, checks={'commutation': True}, tol=1e-08)"),
    (SuiteResult(name="order", passed=True, detail=""),
     "SuiteResult(name='order', passed=True, detail='')"),
]
IDS = [type(value).__name__ for value, _ in VALUES]


def fields(value) -> dict:
    return {name: getattr(value, name) for name in type(value).__annotations__}


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_repr_is_the_dataclass_text(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_equality_is_by_type_and_fields(value, text):
    again = type(value)(**fields(value))
    assert again == value and not again != value
    assert value != tuple(fields(value).values())


def test_equal_fields_of_another_type_are_unequal():
    assert Sym(2) != Ext(2) and Ext(2) != Sym(2)
    assert hash(Sym(2)) == hash(Ext(2))


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_hash_is_the_hash_of_the_fields(value, text):
    values = tuple(fields(value).values())
    try:
        expected = hash(values)
    except TypeError:  # a dict field, as in the cmjd types
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(value, text):
    name = next(iter(fields(value)))
    before = fields(value)
    with pytest.raises(AttributeError):
        setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert fields(value) == before


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
def test_pickle_round_trip(value, text):
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value) and repr(again) == text


@pytest.mark.parametrize("make, error", [
    (lambda: ModuliVector(()), ValueError),
    (lambda: ModuliVector((1.0, -1.0)), NonPositive),
    (lambda: Sym(-1), ValueError),
    (lambda: Ext(-1), ValueError),
    (lambda: Partition((1, 2)), ValueError),
    (lambda: DirectSum(()), ValueError),
    (lambda: LogVector((1.0, 2.0)), ValueError),
    (lambda: Schur((1, 2)), ValueError),
])
def test_post_init_checks_still_run(make, error):
    with pytest.raises(error):
        make()


def test_defaults_and_required_fields():
    assert OrderVerdict("GEQ").failing_level is None
    assert OrderVerdict(relation="GEQ") == OrderVerdict("GEQ", None)
    with pytest.raises(TypeError):
        OrderVerdict()  # relation has no default
    with pytest.raises(TypeError):
        Sym(1, 2)


def test_log_values_order_by_value():
    small, large = LogValue(1.0), LogValue(800.0)
    assert small < large and small <= large and large > small and large >= small
    assert sorted([large, small]) == [small, large]
    assert max(small, large) is large
    with pytest.raises(TypeError):
        small < 2.0
