"""Value classes without dataclasses: import footprint and the frozen
dataclass contract (equality, hashing, immutability, repr)."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from affmult.affine_cartan import AffineWeight, FiniteWeight
from affmult.char_oracle import TruncatedCharacter
from affmult.multiplicities import LimitResult, MuSplit
from affmult.weyl_orbits import LevelTwoFamily, OrbitPair, SocleResult
from charged_tableaux import ExtendedTableau

ROOT = Path(__file__).resolve().parents[1]

FW = FiniteWeight(2, (1, 0))
AW = AffineWeight(FW, 1, Fraction(-3, 2))
OP = OrbitPair((2, 1), (0, -1), 2)
AW_TEXT = "AffineWeight(finite=FiniteWeight(n=2, coords=(1, 0)), level=1, degree=Fraction(-3, 2))"

# (class, field values, repr of the frozen dataclass each class replaced)
CASES = [
    (FiniteWeight, (2, (1, 0)), "FiniteWeight(n=2, coords=(1, 0))"),
    (AffineWeight, (FW, 1, Fraction(-3, 2)), AW_TEXT),
    (OrbitPair, ((2, 1), (0, -1), 2), "OrbitPair(m=(2, 1), p=(0, -1), level=2)"),
    (SocleResult, (AW,), f"SocleResult(weight={AW_TEXT})"),
    (LevelTwoFamily, (0, 1, 2, (OP,)),
     "LevelTwoFamily(j=0, k=1, n=2, members=(OrbitPair(m=(2, 1), p=(0, -1), level=2),))"),
    (MuSplit, (FW, FiniteWeight(2, (0, 1))),
     "MuSplit(mu0=FiniteWeight(n=2, coords=(1, 0)), mu1=FiniteWeight(n=2, coords=(0, 1)))"),
    (LimitResult, (5, 3, ((FW, 2, (1, 5)),)),
     "LimitResult(value=5, stabilized_at=3, "
     "sequences=((FiniteWeight(n=2, coords=(1, 0)), 2, (1, 5)),))"),
    (ExtendedTableau, (2, (3, 1), 1), "ExtendedTableau(n=2, shape=(3, 1), charge=1)"),
    (TruncatedCharacter, (AW, 2, {AW: 1}),
     f"TruncatedCharacter(highest={AW_TEXT}, depth=2, mults={{{AW_TEXT}: 1}})"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def test_import_loads_no_dataclasses():
    code = ("import sys, affmult, affmult.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'csv'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_repr_matches_dataclass_text(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_equality_is_by_value_and_class(cls, values, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    twin = type("Twin", (cls,), {})(*values)
    assert a != twin and twin != a
    assert a != values
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("cls,values,text", CASES[:-1], ids=IDS[:-1])
def test_equal_values_hash_alike(cls, values, text):
    assert hash(cls(*values)) == hash(cls(*values)) == hash(values)


def test_dict_field_is_unhashable():
    with pytest.raises(TypeError):
        hash(TruncatedCharacter(AW, 2, {}))


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_fields_are_read_only(cls, values, text):
    obj = cls(*values)
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, values[0])
    with pytest.raises(AttributeError):
        delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.extra = 1
    assert getattr(obj, name) is values[0]


def test_finite_weight_checks_length():
    with pytest.raises(ValueError):
        FiniteWeight(2, (1,))


def test_tableau_charge_defaults_to_none():
    assert ExtendedTableau(2, (3, 1)).charge is None
