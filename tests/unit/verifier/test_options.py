"""Unit tests: the unified ``CheckOptions`` value."""

import pickle

import pytest

from repro.checker import default_registry, empty_registry
from repro.verifier import CheckOptions


class TestConstruction:
    def test_defaults(self):
        options = CheckOptions()
        assert options.method == "extended"
        assert options.operators is None
        assert options.outputs is None
        assert options.correspondences == ()
        assert options.tabling is True
        assert options.check_preconditions is True
        assert options.timeout is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            CheckOptions(method="wrong")

    def test_frozen(self):
        with pytest.raises(Exception):
            CheckOptions().method = "basic"

    def test_sequences_coerced_to_tuples(self):
        options = CheckOptions(outputs=["B", "C"], correspondences=[("t", "u")])
        assert options.outputs == ("B", "C")
        assert options.correspondences == (("t", "u"),)

    def test_repeated_outputs_keep_first_occurrence(self):
        options = CheckOptions(outputs=("C", "B", "C"))
        assert options.outputs == ("C", "B")
        assert CheckOptions(outputs=("C", "C")) == CheckOptions(outputs=("C",))
        assert CheckOptions(outputs=("C", "C")).fingerprint() == CheckOptions(outputs=("C",)).fingerprint()

    def test_operator_canonicalisation(self):
        # order and props spelling normalise; explicit default collapses to None
        assert CheckOptions(operators=(("min", "CA"), ("max", "c"))).operators == (
            ("max", "C"),
            ("min", "AC"),
        )
        assert CheckOptions(operators=(("+", "AC"), ("*", "CA"))) == CheckOptions()

    def test_empty_operator_tuple_means_no_laws(self):
        options = CheckOptions(operators=())
        assert options.operators == ()
        registry = options.registry()
        assert not registry.get("+").is_algebraic
        assert not registry.get("*").is_algebraic


class TestRegistryRoundTrip:
    def test_default_registry(self):
        options = CheckOptions()
        registry = options.registry()
        assert registry.get("+").associative and registry.get("+").commutative
        assert registry.get("*").associative and registry.get("*").commutative

    def test_from_registry_with_extras(self):
        registry = default_registry()
        registry.declare("min", associative=True, commutative=True)
        options = CheckOptions.from_registry(registry)
        rebuilt = options.registry()
        assert rebuilt.get("min").is_algebraic
        assert rebuilt.get("+").is_algebraic

    def test_from_registry_can_drop_defaults(self):
        options = CheckOptions.from_registry(empty_registry())
        assert options.operators == ()
        assert not options.registry().get("+").is_algebraic

    def test_from_registry_none_is_default(self):
        assert CheckOptions.from_registry(None) == CheckOptions()


class TestSerialisation:
    def test_dict_round_trip(self):
        options = CheckOptions(
            method="basic",
            operators=(("min", "AC"),),
            outputs=("B",),
            correspondences=(("t", "u"),),
            tabling=False,
            check_preconditions=False,
            timeout=12.5,
        )
        assert CheckOptions.from_dict(options.to_dict()) == options

    def test_default_dict_round_trip(self):
        assert CheckOptions.from_dict(CheckOptions().to_dict()) == CheckOptions()

    def test_picklable_and_hashable(self):
        options = CheckOptions(method="basic", outputs=("B",))
        assert pickle.loads(pickle.dumps(options)) == options
        assert hash(options) == hash(CheckOptions(method="basic", outputs=("B",)))

    def test_replace(self):
        options = CheckOptions()
        basic = options.replace(method="basic")
        assert basic.method == "basic"
        assert options.method == "extended"


class TestFingerprint:
    def test_stable_and_hex(self):
        fingerprint = CheckOptions().fingerprint()
        assert fingerprint == CheckOptions().fingerprint()
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_sensitive_to_every_verdict_relevant_field(self):
        baseline = CheckOptions().fingerprint()
        assert CheckOptions(method="basic").fingerprint() != baseline
        assert CheckOptions(operators=(("min", "AC"),)).fingerprint() != baseline
        assert CheckOptions(outputs=("B",)).fingerprint() != baseline
        assert CheckOptions(correspondences=(("t", "u"),)).fingerprint() != baseline
        assert CheckOptions(tabling=False).fingerprint() != baseline
        assert CheckOptions(check_preconditions=False).fingerprint() != baseline

    def test_timeout_is_excluded(self):
        # A timeout can abort a check but never change a computed verdict, so
        # it must not split the result-cache key space.
        assert CheckOptions(timeout=5.0).fingerprint() == CheckOptions().fingerprint()

    def test_equivalent_operator_spellings_agree(self):
        explicit_default = CheckOptions(operators=(("*", "CA"), ("+", "AC")))
        assert explicit_default.fingerprint() == CheckOptions().fingerprint()

    def test_correspondence_order_insensitive(self):
        first = CheckOptions(correspondences=(("a", "b"), ("c", "d")))
        second = CheckOptions(correspondences=(("c", "d"), ("a", "b")))
        assert first.fingerprint() == second.fingerprint()
