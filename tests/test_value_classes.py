"""The slotted value classes ``Word``, ``NormalForm`` and
``TorsionCertificate`` behave as the plain frozen dataclasses they
replace: the same ``repr``, ``==`` and ``hash`` (so set orders and the
goldens cannot move), frozen, and copyable.  Their hand-written
``__init__`` stores each field through the slot descriptor."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from torlen import torsion, words
from torlen.constructions import build_pjkl
from torlen.freeprod import CyclicFactorSpec, NormalForm, normal_form
from torlen.torsion import TorsionCertificate, torsion_certificate_search
from torlen.words import Word, free_reduce


def level2_certificate():
    report = torsion_certificate_search(build_pjkl(2, 2, 2), level=2, word_bound=4)
    return next(c for c in report.certificates if c.level == 2 and c.supporting)


def samples():
    spec = CyclicFactorSpec.from_text("factors: x:2 y:3 t:inf")
    return [
        Word.from_text("a b^-1 a"),
        Word(),
        normal_form(spec, Word.from_text("x y y t^-1 x")),
        NormalForm(),
        level2_certificate(),
    ]


def compared(obj) -> tuple:
    """The field values the generated ``==`` and ``hash`` compare."""
    return tuple(getattr(obj, f.name) for f in fields(obj) if f.compare)


@pytest.mark.parametrize("cls", [Word, NormalForm, TorsionCertificate])
def test_classes_are_slotted(cls):
    assert cls.__slots__ == tuple(f.name for f in fields(cls))
    assert "__dict__" not in dir(cls)


@pytest.mark.parametrize("obj", samples(), ids=lambda obj: type(obj).__name__)
def test_repr_eq_and_hash_are_the_dataclass_ones(obj):
    shown = [f for f in fields(obj) if f.repr]
    args = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in shown)
    assert repr(obj) == f"{type(obj).__qualname__}({args})"
    assert hash(obj) == hash(compared(obj))
    twin = replace(obj)
    assert twin == obj and twin is not obj and hash(twin) == hash(obj)
    assert obj != compared(obj)  # another class with the same fields is not equal


def test_word_and_normal_form_hash_as_their_one_field():
    w = Word.from_text("a b^-1 a")
    assert hash(w) == hash((w.letters,))
    nf = NormalForm(((0, 1), (1, 2)))
    assert hash(nf) == hash((nf.syllables,))


@pytest.mark.parametrize("obj", samples(), ids=lambda obj: type(obj).__name__)
def test_fields_cannot_be_assigned_or_added(obj):
    for f in fields(obj):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, f.name)
    # a name that is no field raises TypeError on Python 3.11: the generated
    # __setattr__ names the class as it was before slots=True rebuilt it
    with pytest.raises((FrozenInstanceError, TypeError)):
        obj.extra = 1
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("obj", samples(), ids=lambda obj: type(obj).__name__)
def test_pickle_and_deepcopy_round_trip(obj):
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(twin) is type(obj) and twin == obj and hash(twin) == hash(obj)
        assert repr(twin) == repr(obj)


def test_copies_of_a_certificate_verify():
    cert = level2_certificate()
    assert pickle.loads(pickle.dumps(cert)).verify()
    assert cert.verify()
    for twin in (pickle.loads(pickle.dumps(cert)), copy.deepcopy(cert)):
        assert twin.verify() and twin == cert


def test_the_verify_memo_is_no_field_of_eq_hash_or_repr():
    cert = level2_certificate()
    unverified = replace(cert)
    assert cert.verify()
    assert unverified._verified is None and cert._verified is True
    assert cert == unverified and hash(cert) == hash(unverified)
    assert repr(cert) == repr(unverified) and "_verified" not in repr(cert)


def test_replace_starts_a_fresh_memo_and_verifies_again(monkeypatch):
    cert = level2_certificate()
    assert cert.verify()
    calls = []
    real = torsion.verify_factors
    monkeypatch.setattr(torsion, "verify_factors", lambda *args: calls.append(1) or real(*args))
    bad = replace(cert, exponent=cert.exponent + 1)
    assert bad._verified is None and bad.verify() is False
    # the copy checks its own product again; its supporting certificates
    # are the same objects, whose memos stand
    same = replace(cert, level=cert.level)
    assert same._verified is None and same.supporting == cert.supporting
    assert same.verify() is True and len(calls) == 1
    with pytest.raises(ValueError):
        replace(cert, _verified=True)


def test_certificate_defaults():
    w = Word.gen("x")
    cert = TorsionCertificate(w, 2, 1, ((Word(), w * w, 1),))
    assert cert.adjoined == () and cert.supporting == () and cert._verified is None
    assert cert.verify()


def test_post_init_runs_once_per_checked_word_and_never_in_unchecked_builds(monkeypatch):
    calls = []
    real = Word.__post_init__
    monkeypatch.setattr(Word, "__post_init__", lambda self: calls.append(self) or real(self))
    w = Word((("a", 1), ("b", -1)))
    assert calls == [w]
    assert replace(w, letters=(("b", 1),)) == Word.gen("b") and len(calls) == 2
    calls.clear()
    derived = [
        words._word((("a", 1),)),
        Word.gen("a", 3),
        Word.from_text("a b^-1"),
        Word.empty(),
        w * w,
        w**2,
        w.inverse(),
        free_reduce(w * w.inverse()),
    ]
    assert calls == [] and all(type(d) is Word for d in derived)
