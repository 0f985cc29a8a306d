"""IDX file handling and the synthetic oriented-edges task."""

import struct

import numpy as np
import pytest

from logpolar.data import Dataset, load_idx, make_oriented_edges, save_idx


def write_pair(tmp_path, images, labels):
    """Hand-rolled IDX writer, independent of save_idx."""
    n, h, w = images.shape
    ip = tmp_path / "imgs.idx"
    lp = tmp_path / "labels.idx"
    ip.write_bytes(struct.pack(">IIII", 0x803, n, h, w) + images.astype(np.uint8).tobytes())
    lp.write_bytes(struct.pack(">II", 0x801, len(labels)) + labels.astype(np.uint8).tobytes())
    return ip, lp


class TestIdx:
    def test_zero_image_roundtrip(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
        ds = load_idx(ip, lp)
        assert ds.images.shape == (1, 2, 2, 1)
        assert not ds.images.any()

    def test_pixel_255_scales_to_one(self, tmp_path):
        imgs = np.zeros((2, 2, 2), np.uint8)
        imgs[0, 0, 0] = 255
        imgs[1, 1, 1] = 128
        ip, lp = write_pair(tmp_path, imgs, np.array([0, 1], np.uint8))
        ds = load_idx(ip, lp)
        assert ds.images[0, 0, 0, 0] == 1.0
        assert ds.images[1, 1, 1, 0] == 128 / 255

    def test_count_mismatch(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(3, np.uint8))
        with pytest.raises(ValueError, match="2 images but 3 labels"):
            load_idx(ip, lp)

    def test_bad_magic(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
        ip.write_bytes(b"\x00\x00\x09\x03" + ip.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            load_idx(ip, lp)

    def test_truncated_payload(self, tmp_path):
        ip, lp = write_pair(tmp_path, np.zeros((2, 3, 3), np.uint8), np.zeros(2, np.uint8))
        ip.write_bytes(ip.read_bytes()[:-4])
        with pytest.raises(ValueError, match="truncated"):
            load_idx(ip, lp)

    def test_write_then_read_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        imgs = rng.integers(0, 256, size=(4, 5, 5), dtype=np.uint8)
        labels = rng.integers(0, 2, size=4, dtype=np.uint8)
        ip, lp = write_pair(tmp_path, imgs, labels)
        ds = load_idx(ip, lp)
        ip2 = tmp_path / "again.idx"
        lp2 = tmp_path / "again_labels.idx"
        save_idx(ds, ip2, lp2)
        assert ip.read_bytes() == ip2.read_bytes()
        assert lp.read_bytes() == lp2.read_bytes()

    def test_label_past_one_byte_refused_before_any_write(self, tmp_path):
        # IDX labels are unsigned bytes: 256 and 300 would read back as 0 and 44
        ip, lp = tmp_path / "imgs.idx", tmp_path / "labels.idx"
        with pytest.raises(ValueError) as exc:
            save_idx(Dataset(np.zeros((3, 8, 8, 1)), [0, 256, 300], 301), ip, lp)
        assert str(exc.value) == f"{lp}: label 300 does not fit an IDX byte"
        assert not ip.exists() and not lp.exists()
        save_idx(Dataset(np.zeros((2, 8, 8, 1)), [0, 255], 256), ip, lp)
        assert load_idx(ip, lp).labels.tolist() == [0, 255]


class TestDatasetValidation:
    def test_rejects_nan(self):
        imgs = np.zeros((1, 2, 2, 1))
        imgs[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Dataset(images=imgs, labels=np.zeros(1, int), num_classes=2)

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            Dataset(images=np.zeros((1, 2, 2, 1)), labels=np.array([2]), num_classes=2)


class TestOrientedEdges:
    def test_deterministic(self):
        a = make_oriented_edges(8, size=16, seed=12)
        b = make_oriented_edges(8, size=16, seed=12)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = make_oriented_edges(8, size=16, seed=12)
        b = make_oriented_edges(8, size=16, seed=13)
        assert not np.array_equal(a.images, b.images)

    def test_exact_class_balance(self):
        ds = make_oriented_edges(16, size=16, seed=0)
        assert len(ds) == 32
        assert int((ds.labels == 0).sum()) == 16
        assert int((ds.labels == 1).sum()) == 16

    def test_values_in_unit_range(self):
        ds = make_oriented_edges(8, size=16, seed=3)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_size_floor(self):
        with pytest.raises(ValueError, match="size"):
            make_oriented_edges(4, size=6, seed=0)

    def test_linear_probe_cannot_fit_task(self):
        # at 256 samples per class (512 > 256 pixels) a linear model can
        # no longer separate by memorization; the task itself is not
        # linearly solvable from raw pixels
        from logpolar.network import LayerSpec, NetSpec, TrainConfig, build_network, evaluate, train

        ds = make_oriented_edges(256, size=16, seed=1)
        spec = NetSpec(
            layers=[LayerSpec("flatten"), LayerSpec("dense", {"units": 2})],
            input_shape=(16, 16, 1),
            num_classes=2,
        )
        net = build_network(spec, seed=1)
        cfg = TrainConfig(
            learning_rate=0.05, momentum=0.9, weight_decay=0.0005,
            batch_size=16, epochs=200, seed=1,
        )
        train(net, ds, cfg)
        _, acc = evaluate(net, ds)
        assert acc < 1.0
        assert acc > 0.6  # still learnable above chance
