"""Unit tests for repro.net.addr."""

import pickle

import pytest

from repro.errors import AddressError
from repro.net.addr import Address, Prefix


class TestAddress:
    def test_parse_dotted_quad(self):
        assert Address("10.1.2.3").value == (10 << 24) | (1 << 16) | (2 << 8) | 3

    def test_roundtrip_string(self):
        for text in ["0.0.0.0", "255.255.255.255", "192.168.1.1"]:
            assert str(Address(text)) == text

    def test_int_construction(self):
        assert str(Address(0x0A000001)) == "10.0.0.1"

    def test_equality_with_int(self):
        assert Address("10.0.0.1") == 0x0A000001

    def test_ordering(self):
        assert Address("10.0.0.1") < Address("10.0.0.2")
        assert Address("9.255.255.255") <= Address("10.0.0.0")

    def test_hashable(self):
        assert len({Address("1.2.3.4"), Address("1.2.3.4")}) == 1

    def test_add_offset(self):
        assert Address("10.0.0.1") + 5 == Address("10.0.0.6")

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4"]
    )
    def test_malformed_strings_rejected(self, bad):
        with pytest.raises(AddressError):
            Address(bad)

    def test_out_of_range_int_rejected(self):
        with pytest.raises(AddressError):
            Address(1 << 32)
        with pytest.raises(AddressError):
            Address(-1)


class TestPrefix:
    def test_parse_slash_notation(self):
        p = Prefix("10.0.0.0/8")
        assert p.length == 8
        assert p.base == 10 << 24

    def test_base_and_length_construction(self):
        assert Prefix(10 << 24, 8) == Prefix("10.0.0.0/8")

    def test_host_bits_rejected(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.1/8")

    def test_contains_address(self):
        p = Prefix("10.1.0.0/16")
        assert "10.1.2.3" in p
        assert "10.2.0.0" not in p

    def test_contains_subprefix(self):
        outer = Prefix("10.0.0.0/8")
        assert Prefix("10.1.0.0/16") in outer
        assert Prefix("11.0.0.0/16") not in outer
        assert Prefix("0.0.0.0/0") not in outer

    def test_num_addresses(self):
        assert Prefix("10.0.0.0/24").num_addresses == 256
        assert Prefix("10.0.0.4/30").num_addresses == 4

    def test_address_offset(self):
        p = Prefix("10.0.0.0/24")
        assert p.address(1) == Address("10.0.0.1")
        with pytest.raises(AddressError):
            p.address(256)

    def test_subnets(self):
        subs = list(Prefix("10.0.0.0/30").subnets(31))
        assert subs == [Prefix("10.0.0.0/31"), Prefix("10.0.0.2/31")]

    def test_supernet(self):
        assert Prefix("10.1.0.0/16").supernet(8) == Prefix("10.0.0.0/8")
        with pytest.raises(AddressError):
            Prefix("10.0.0.0/8").supernet(16)

    def test_is_more_specific_of(self):
        assert Prefix("10.1.0.0/16").is_more_specific_of(Prefix("10.0.0.0/8"))
        assert not Prefix("10.0.0.0/8").is_more_specific_of(
            Prefix("10.0.0.0/8")
        )

    def test_str_roundtrip(self):
        assert str(Prefix("172.16.0.0/12")) == "172.16.0.0/12"
        assert Prefix(str(Prefix("1.0.0.0/8"))) == Prefix("1.0.0.0/8")

    def test_bad_lengths(self):
        with pytest.raises(AddressError):
            Prefix("10.0.0.0/33")
        with pytest.raises(AddressError):
            Prefix("10.0.0.0")

    def test_cached_hash_is_the_tuple_hash(self):
        # The cached value must stay hash((base, length)): set and dict
        # iteration orders, and every digest built on them, depend on it.
        for text in ("0.0.0.0/0", "10.0.0.0/8", "192.168.4.0/22"):
            prefix = Prefix(text)
            assert hash(prefix) == hash((prefix.base, prefix.length))
        assert hash(Prefix(0x0A000000, 8)) == hash((0x0A000000, 8))

    def test_pickle_round_trip(self):
        prefix = Prefix("10.20.0.0/16")
        again = pickle.loads(pickle.dumps(prefix))
        assert again == prefix
        assert hash(again) == hash(prefix) == hash((prefix.base, 16))
        assert str(again) == "10.20.0.0/16"
        assert {again: 1}[prefix] == 1
