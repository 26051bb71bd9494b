"""``fincat.record`` against the standard library's ``dataclasses``.

Every record class in ``smallcat`` gets a twin made by
``dataclasses.make_dataclass`` from the same annotations, defaults, flags
and hand-written methods.  Twin and record must agree on the ``__init__``
signature, fresh factory defaults, ``repr``, ``==`` and ``!=``, ``hash``
(or its ``TypeError``), and the error on a frozen assignment or deletion.
"""
import dataclasses
import importlib
import inspect

import pytest

import smallcat
from smallcat import fincat

MODULES = smallcat._MODULES
SHARED = {fincat._record_repr, fincat._record_hash, fincat._frozen_setattr,
          fincat._frozen_delattr}


def record_classes() -> list[type]:
    found = []
    for name in MODULES:
        module = importlib.import_module(f"smallcat.{name}")
        found.extend(v for v in vars(module).values()
                     if isinstance(v, type) and v.__module__ == module.__name__
                     and "__record_fields__" in vars(v))
    return found


RECORDS = record_classes()


def is_frozen(cls) -> bool:
    return vars(cls).get("__setattr__") is fincat._frozen_setattr


def written(cls) -> dict:
    """The methods the class body itself defines among those a dataclass
    would generate or call."""
    out = {}
    for name in ("__init__", "__eq__", "__repr__", "__hash__", "__post_init__"):
        f = vars(cls).get(name)
        if (callable(f) and f not in SHARED
                and f.__code__.co_filename != "<string>"):
            out[name] = f
    return out


_twins: dict = {}


def twin(cls):
    """The stdlib dataclass of ``cls``'s own annotations and defaults, over
    the twins of its record bases."""
    if cls not in _twins:
        specs = []
        for name, kind in vars(cls).get("__annotations__", {}).items():
            default = cls.__record_fields__[name]
            if default is fincat._REQUIRED:
                specs.append((name, kind))
            elif isinstance(default, fincat._Factory):
                specs.append((name, kind, dataclasses.field(
                    default_factory=default.make)))
            else:
                specs.append((name, kind, default))
        bases = tuple(twin(b) for b in cls.__bases__ if b is not object)
        _twins[cls] = dataclasses.make_dataclass(
            cls.__name__, specs, bases=bases, namespace=written(cls),
            frozen=is_frozen(cls), slots="__slots__" in vars(cls))
    return _twins[cls]


def sample(cls, tag: str = "") -> dict:
    """One hashable value per field; ``p`` is a prime for the classes that
    check it in ``__post_init__``."""
    return {name: 2 if name == "p" else f"{cls.__name__}.{name}{tag}"
            for name in cls.__record_fields__}


def signature_of(cls) -> list:
    return [(p.name, p.kind, repr(p.default))
            for p in inspect.signature(cls.__init__).parameters.values()]


def test_every_record_class_is_found():
    assert len(RECORDS) == 44
    assert all(dataclasses.fields(twin(cls)) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_record_agrees_with_its_dataclass_twin(cls):
    Twin = twin(cls)
    assert list(cls.__record_fields__) == [f.name for f in dataclasses.fields(Twin)]
    assert signature_of(cls) == signature_of(Twin)

    values = sample(cls)
    mine, theirs = cls(**values), Twin(**values)
    assert repr(mine) == repr(theirs)
    assert repr(cls(*values.values())) == repr(mine)

    if "__eq__" not in written(cls):  # CatspecDocument's is tested below
        same, other = cls(**values), cls(**sample(cls, "'"))
        assert (mine == same, mine != same) == (theirs == Twin(**values),
                                                theirs != Twin(**values))
        assert mine == same and not mine != same
        assert (mine == other) == (theirs == Twin(**sample(cls, "'")))
        # another class: ``==`` falls back to identity on both
        assert (mine == theirs, mine != theirs) == (False, True)
        assert (mine == values, theirs == values) == (False, False)

    if is_frozen(cls):
        if "__hash__" not in written(cls):  # CatspecDocument's: see below
            assert hash(mine) == hash(theirs) == hash(cls(**values))
        name = next(iter(values))
        for action in (lambda x: setattr(x, name, 1),
                       lambda x: delattr(x, name)):
            with pytest.raises(AttributeError) as ours:
                action(mine)
            with pytest.raises(AttributeError) as stdlib:
                action(theirs)
            assert isinstance(ours.value, fincat.FrozenRecordError)
            assert str(ours.value) == str(stdlib.value)
        assert repr(mine) == repr(theirs)  # nothing changed
    else:
        for x in (mine, theirs):
            with pytest.raises(TypeError):
                hash(x)
        name = next(iter(values))
        mine.__setattr__(name, "changed")
        theirs.__setattr__(name, "changed")
        assert repr(mine) == repr(theirs)


@pytest.mark.parametrize("cls", [c for c in RECORDS if any(
    isinstance(d, fincat._Factory) for d in c.__record_fields__.values())],
    ids=lambda c: c.__qualname__)
def test_factory_defaults_are_fresh_per_instance(cls):
    required = {name: f"{cls.__name__}.{name}"
                for name, d in cls.__record_fields__.items()
                if d is fincat._REQUIRED}
    a, b, t = cls(**required), cls(**required), twin(cls)(**required)
    for name, d in cls.__record_fields__.items():
        if isinstance(d, fincat._Factory):
            assert getattr(a, name) is not getattr(b, name)
            assert getattr(a, name) == getattr(t, name)
            assert name not in vars(cls)


def test_post_init_checks_the_prime():
    from smallcat.chaincx import FiniteComplex
    from smallcat.rings import FiniteAlgebra
    for cls in (FiniteComplex, FiniteAlgebra):
        values = dict(sample(cls), p=4)
        for make in (cls, twin(cls)):
            with pytest.raises(ValueError, match="p = 4 is not a prime"):
                make(**values)


def test_dagger_category_inherits_its_fields():
    from smallcat.invcat import DaggerCategory, InvolutiveCategory
    assert list(DaggerCategory.__record_fields__) == ["base", "tau"]
    dagger = DaggerCategory("B", "T")
    plain = InvolutiveCategory("B", "T")
    assert repr(dagger) == repr(twin(DaggerCategory)("B", "T"))
    assert repr(dagger) == "DaggerCategory(base='B', tau='T')"
    # the same fields, but another class
    assert dagger != plain and plain != dagger
    assert hash(dagger) == hash(plain)


def test_catspec_document_keeps_its_own_eq():
    from smallcat.catspec import Block, CatspecDocument
    a = Block("category", "C", (), (("mor", "f"), ("mor", "g")))
    b = Block("category", "C", (), (("mor", "g"), ("mor", "f")))
    assert CatspecDocument((a,)) == CatspecDocument((b,))
    c = Block("category", "D", (), ())
    assert CatspecDocument((a,)) != CatspecDocument((a, c))
    assert CatspecDocument((a,)) != (a,)
    assert CatspecDocument.__eq__ is twin(CatspecDocument).__eq__
    # a dataclass keeps a hash the class body defines, and so does record
    assert CatspecDocument.__hash__ is twin(CatspecDocument).__hash__
    assert hash(CatspecDocument((a,))) == hash(twin(CatspecDocument)((a,)))


def test_equal_catspec_documents_hash_alike():
    # reordered entries in a block, then reordered blocks
    from smallcat.catspec import Block, CatspecDocument
    a = Block("category", "C", (), (("mor", "f"), ("mor", "g")))
    b = Block("category", "C", (), (("mor", "g"), ("mor", "f")))
    c = Block("category", "D", (), (("obj", "x"),), line=7)
    pairs = [(CatspecDocument((a,)), CatspecDocument((b,))),
             (CatspecDocument((a, c)), CatspecDocument((c, b)))]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert len({x for pair in pairs for x in pair}) == 2
    assert CatspecDocument((a,)) != CatspecDocument((a, c))


def test_matrix_has_slots():
    from smallcat.chaincx import Matrix
    m = Matrix(((1, 0),), 2)
    assert Matrix.__slots__ == ("rows", "ncols")
    assert not hasattr(m, "__dict__")
    assert m.shape == (1, 2) and repr(m) == "Matrix(rows=((1, 0),), ncols=2)"
    with pytest.raises(fincat.FrozenRecordError):
        m.ncols = 3

