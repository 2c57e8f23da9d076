"""Unit tests for shared types, validation helpers, RNG plumbing, the
built-in hashes and tables."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.types import ALL_REGIONS, NodeDescriptor, Region, validate_fault_parameters
from repro.utils import digest
from repro.utils.rng import derive_rng
from repro.utils.tables import format_table
from repro.utils.validation import require, require_positive, require_probability


class TestTypes:
    def test_nine_regions(self):
        assert len(ALL_REGIONS) == 9

    def test_descriptor_rejects_negative_id(self):
        with pytest.raises(ValueError):
            NodeDescriptor(node_id=-1, region=Region.TOKYO)

    def test_fault_parameter_bound(self):
        validate_fault_parameters(4, 1)
        with pytest.raises(ConfigurationError):
            validate_fault_parameters(3, 1)
        with pytest.raises(ConfigurationError):
            validate_fault_parameters(0, 0)
        with pytest.raises(ConfigurationError):
            validate_fault_parameters(10, -1)


class TestRng:
    def test_derivation_deterministic(self):
        assert derive_rng(1, "a").random() == derive_rng(1, "a").random()

    def test_labels_namespace_streams(self):
        assert derive_rng(1, "a").random() != derive_rng(1, "b").random()

    def test_seed_matters(self):
        assert derive_rng(1, "a").random() != derive_rng(2, "a").random()


class TestDigest:
    """The built-in hashes against OpenSSL's, around each block boundary."""

    @pytest.mark.parametrize("length", [0, 1, 55, 56, 63, 64, 65, 720, 4096])
    def test_sha256_equals_hashlib(self, length):
        data = bytes(range(256)) * 16
        assert digest.sha256(data[:length]).digest() == hashlib.sha256(data[:length]).digest()

    def test_chained_updates_equal_hashlib(self):
        ours, reference = digest.sha256(), hashlib.sha256()
        for length in (0, 1, 55, 64, 65, 720):
            ours.update(b"x" * length)
            reference.update(b"x" * length)
        assert ours.hexdigest() == reference.hexdigest()

    def test_blake2b_equals_hashlib(self):
        data = b"salt:str:'client-42'"
        assert (digest.blake2b(data, digest_size=8).digest()
                == hashlib.blake2b(data, digest_size=8).digest())


class TestValidation:
    def test_require(self):
        require(True, "fine")
        with pytest.raises(ConfigurationError):
            require(False, "boom")

    def test_require_positive(self):
        require_positive(1, "x")
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")

    def test_require_probability(self):
        require_probability(0.5, "p")
        with pytest.raises(ConfigurationError):
            require_probability(-0.1, "p")
        with pytest.raises(ConfigurationError):
            require_probability(1.1, "p")


class TestTables:
    def test_basic_rendering(self):
        text = format_table(["a", "b"], [[1, 2.5]])
        assert "a | b" in text
        assert "1 | 2.50" in text

    def test_title_prepended(self):
        text = format_table(["a"], [[1]], title="My table")
        assert text.startswith("My table")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["only", "headers"], [])
        assert "only" in text
