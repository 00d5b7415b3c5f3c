"""Unit tests for the MP4-style atom container."""

import pytest

from repro.video.mp4 import (
    Atom,
    Mp4File,
    make_ftyp,
    make_mvhd,
    make_stsd,
    make_stss,
    make_sv3d,
    parse_atoms,
    parse_stsd,
    parse_stss,
    parse_sv3d,
)


class TestAtom:
    def test_kind_must_be_four_chars(self):
        with pytest.raises(ValueError):
            Atom("abc")

    def test_payload_and_children_exclusive(self):
        with pytest.raises(ValueError):
            Atom("moov", payload=b"x", children=[Atom("free")])

    def test_leaf_serialise_layout(self):
        atom = Atom("free", payload=b"abcd")
        data = atom.serialize()
        assert data[:4] == (12).to_bytes(4, "big")
        assert data[4:8] == b"free"
        assert data[8:] == b"abcd"

    def test_container_serialises_children(self):
        container = Atom("moov", children=[Atom("free", payload=b"xy")])
        parsed = parse_atoms(container.serialize())
        assert parsed[0].kind == "moov"
        assert parsed[0].children[0].payload == b"xy"

    def test_empty_container_type_round_trips_as_container(self):
        moov = Atom("moov", children=[Atom("trak", children=[Atom("stsd", payload=b"z")])])
        parsed = parse_atoms(moov.serialize())[0]
        assert parsed.find("trak.stsd").payload == b"z"


class TestParsing:
    def test_unknown_atom_round_trips(self):
        atom = Atom("zzzz", payload=b"\x01\x02\x03")
        parsed = parse_atoms(atom.serialize())
        assert parsed[0].kind == "zzzz"
        assert parsed[0].payload == b"\x01\x02\x03"

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            parse_atoms(b"\x00\x00\x00")

    def test_size_too_small(self):
        bad = (4).to_bytes(4, "big") + b"free"
        with pytest.raises(ValueError):
            parse_atoms(bad)

    def test_size_overruns_buffer(self):
        bad = (100).to_bytes(4, "big") + b"free" + b"xx"
        with pytest.raises(ValueError):
            parse_atoms(bad)

    def test_sequence_of_atoms(self):
        data = Atom("ftyp", payload=b"ab").serialize() + Atom("mdat", payload=b"cd").serialize()
        parsed = parse_atoms(data)
        assert [atom.kind for atom in parsed] == ["ftyp", "mdat"]


class TestFind:
    def build(self) -> Mp4File:
        return Mp4File(
            atoms=[
                make_ftyp(),
                Atom(
                    "moov",
                    children=[
                        make_mvhd(1000, 5000),
                        Atom("trak", children=[make_stsd("vcbd", 64, 32, 30.0, "high")]),
                        Atom("trak", children=[make_stsd("vcbd", 64, 32, 30.0, "low")]),
                    ],
                ),
            ]
        )

    def test_find_top_level(self):
        assert self.build().find("moov") is not None

    def test_find_nested_path(self):
        stsd = self.build().find("moov.trak.stsd")
        assert stsd is not None
        assert parse_stsd(stsd)["quality"] == "high"  # first match wins

    def test_find_missing(self):
        assert self.build().find("moov.vcld") is None

    def test_find_all(self):
        moov = self.build().find("moov")
        assert len(moov.find_all("trak")) == 2

    def test_whole_file_round_trip(self):
        original = self.build()
        parsed = Mp4File.parse(original.serialize())
        assert parsed.serialize() == original.serialize()


class TestTypedAtoms:
    def test_stsd_round_trip(self):
        parsed = parse_stsd(make_stsd("vcbd", 256, 128, 29.97, "medium"))
        assert parsed == {
            "codec": "vcbd",
            "width": 256,
            "height": 128,
            "fps": 29.97,
            "quality": "medium",
        }

    def test_stss_round_trip(self):
        entries = [(0, 0, 1234), (1000, 1, 999), (2000, 1, 17)]
        assert parse_stss(make_stss(entries)) == entries

    def test_stss_empty(self):
        assert parse_stss(make_stss([])) == []

    def test_sv3d_round_trip(self):
        assert parse_sv3d(make_sv3d("equirectangular")) == "equirectangular"

    def test_ftyp_brand_padded(self):
        atom = make_ftyp("vc")
        assert len(atom.payload) == 4
