"""Fuzzed binary readers: a mutated file loads, or raises ValueError naming it.

Each property starts from a valid file (TNSR, LPSCW, an IDX image/label
pair, a checkpoint manifest) and mutates it: truncation at any offset,
bytes overwritten in the header, one header field replaced, or bytes
appended. No other exception type may escape a reader.
"""

import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logpolar import LpscWeights, load_lpsc_weights, load_tensor, save_lpsc_weights, save_tensor
from logpolar.data import load_idx, make_oriented_edges, save_idx
from logpolar.network import LayerSpec, NetSpec, build_network, load_checkpoint, save_checkpoint

TOKENS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from([str(2**63), "99999999999999999999", str(2**64 + 1)]),  # past int64
    st.sampled_from(["-1", "0", "9" * 5000, "1e3", "nan", "", "v2", "\xe9", "\x00", "lpsc", "dense",
                     "weights", "manifest.txt", "layer.1.lpscw"]),
)
WORDS = st.one_of(st.sampled_from([0, 1, 2, 0x801, 0x803, 2**31, 2**32 - 1]),
                  st.integers(0, 2**32 - 1))


@st.composite
def mutations(draw):
    """(kind, where: an index taken modulo the span, bytes, text token, uint32 word)."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "field", "field", "append"]))
    return (kind, draw(st.integers(0, 2**20)), draw(st.binary(min_size=1, max_size=12)),
            draw(TOKENS), draw(WORDS))


def mutate(blob, mutation, header_len, binary_fields=0):
    """Apply *mutation* to *blob*, whose first *header_len* bytes are its header.

    A field is a whitespace-separated header token, or, when
    *binary_fields* is set, one of that many big-endian uint32 words.
    """
    kind, where, data, token, word = mutation
    if kind == "truncate":
        return blob[: where % len(blob)]
    if kind == "append":
        return blob + data
    if kind == "overwrite":
        at = where % header_len
        return blob[:at] + data + blob[at + len(data) :]
    if binary_fields:
        at = 4 * (where % binary_fields)
        return blob[:at] + struct.pack(">I", word) + blob[at + 4 :]
    parts = re.split(rb"(\s+)", blob[:header_len])
    at = 2 * (where % ((len(parts) + 1) // 2))  # the tokens sit at even indices
    parts[at] = token.encode("latin-1")
    return b"".join(parts) + blob[header_len:]


def loads_or_names(path, load, *args):
    try:
        load(*args)
    except ValueError as exc:
        assert str(path) in str(exc)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(4)
    save_tensor(root / "a.tnsr", rng.normal(size=(2, 3)))
    save_lpsc_weights(root / "w.lpscw", LpscWeights(rng.normal(size=(1, 2)),
                                                    rng.normal(size=(2, 6, 1, 2)), np.zeros(2)))
    save_idx(make_oriented_edges(2, size=8), root / "images.idx", root / "labels.idx")
    spec = NetSpec(
        layers=[LayerSpec("lpsc", {"out_channels": 2, "size": 5, "levels_r": 2, "levels_theta": 6,
                                   "growth": 2, "padding": 2}),
                LayerSpec("flatten"), LayerSpec("dense", {"units": 2})],
        input_shape=(6, 6, 1), num_classes=2,
    )
    save_checkpoint(build_network(spec, seed=0), root / "ck")
    return root, spec


@pytest.mark.parametrize("name, load", [("a.tnsr", load_tensor), ("w.lpscw", load_lpsc_weights)])
@settings(max_examples=200, deadline=None)
@given(mutation=mutations())
def test_mutated_float64_file_loads_or_names_itself(files, name, load, mutation):
    root, _ = files
    blob = (root / name).read_bytes()
    path = root / f"mutated-{name}"
    path.write_bytes(mutate(blob, mutation, blob.index(b"\n")))
    loads_or_names(path, load, path)


@settings(max_examples=150, deadline=None)
@given(mutation=mutations(), labels=st.booleans())
def test_mutated_idx_pair_loads_or_names_the_file(files, mutation, labels):
    root, _ = files
    paths = {name: root / f"mutated-{name}" for name in ("images.idx", "labels.idx")}
    for name, path in paths.items():
        shutil.copyfile(root / name, path)
    target, ndim = (paths["labels.idx"], 1) if labels else (paths["images.idx"], 3)
    blob = target.read_bytes()
    target.write_bytes(mutate(blob, mutation, 4 * (ndim + 1), binary_fields=ndim + 1))
    loads_or_names(target, load_idx, paths["images.idx"], paths["labels.idx"])


@settings(max_examples=150, deadline=None)
@given(mutation=mutations())
def test_mutated_manifest_loads_or_names_the_checkpoint(files, mutation):
    root, spec = files
    directory = root / "mutated-ck"
    shutil.copytree(root / "ck", directory, dirs_exist_ok=True)
    blob = (root / "ck" / "manifest.txt").read_bytes()
    (directory / "manifest.txt").write_bytes(mutate(blob, mutation, len(blob)))
    # an error names the manifest, or the file in the checkpoint that a line points at
    loads_or_names(directory, load_checkpoint, build_network(spec, seed=1), directory)


def test_overflowing_tnsr_header_names_file(tmp_path):
    path = tmp_path / "layer.5.bias.tnsr"
    path.write_bytes(b"TNSR v1 1 99999999999999999999\n")
    with pytest.raises(ValueError, match=r"layer\.5\.bias\.tnsr: payload holds 0 bytes"):
        load_tensor(path)


@pytest.mark.parametrize("header", [b"TNSR v1 2 0 99999999999999999999\n",
                                    b"TNSR v1 3 0 4294967295 4294967295\n"])
def test_empty_tnsr_with_huge_dims_names_file(tmp_path, header):
    path = tmp_path / "empty.tnsr"
    path.write_bytes(header)
    with pytest.raises(ValueError, match=r"empty\.tnsr: TNSR dims .* are too large"):
        load_tensor(path)


@pytest.mark.parametrize("dims", [(1, 2**32 - 1, 2**32 - 1), (0, 2**32 - 1, 2**32 - 1), (1, 0, 3)])
def test_idx_dims_past_the_payload_name_file(files, tmp_path, dims):
    root, _ = files
    images = tmp_path / "images.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, *dims))
    with pytest.raises(ValueError, match=r"images\.idx: "):
        load_idx(images, root / "labels.idx")


def test_non_ascii_manifest_names_it(files, tmp_path):
    root, spec = files
    shutil.copytree(root / "ck", tmp_path / "ck")
    manifest = tmp_path / "ck" / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(b"weights", b"w\xe9ights"))
    with pytest.raises(ValueError, match=r"manifest\.txt: not ASCII text"):
        load_checkpoint(build_network(spec, seed=1), tmp_path / "ck")


def test_manifest_naming_a_missing_file_names_it(files, tmp_path):
    root, spec = files
    shutil.copytree(root / "ck", tmp_path / "ck")
    (tmp_path / "ck" / "layer.3.bias.tnsr").unlink()
    with pytest.raises(ValueError, match=r"manifest\.txt: no file 'layer\.3\.bias\.tnsr'"):
        load_checkpoint(build_network(spec, seed=1), tmp_path / "ck")
