"""Fuzzed spec files: a one-key mutation builds, or raises ValueError naming its place.

Each property starts from a valid spec that states every key a layer
kind, ``[net]`` and ``[train]`` know, and changes one key: drops it,
gives it a value of another type, or moves its value (to 0, a negative,
an even or a huge number, or a non-finite one). Parsing and building
(without a forward pass) then return, or raise ValueError naming the
file or the layer. No other exception type may escape.
"""

import configparser
import io
import re
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logpolar.baselines import DilatedConfig, SquareShareConfig
from logpolar.geometry import DegenerateGeometryWarning, LpscConfig
from logpolar.network import TrainConfig, build_network, parse_net_file

TRAIN = """
[train]
learning_rate = 0.05
momentum = 0.9
weight_decay = 0.0005
batch_size = 16
epochs = 3
seed = 1
"""

SPECS = {
    "lpsc": """
[net]
input = 16x16x1
classes = 2

[layer.1]
kind = lpsc
out_channels = 4
bias = true
size = 5
levels_r = 2
levels_theta = 6
growth = 2
alpha = 0.1
eccentricity = 0.2
stride = 1
padding = 2
pooling = mean
center_conv = true

[layer.2]
kind = relu

[layer.3]
kind = maxpool
size = 2
stride = 2

[layer.4]
kind = flatten

[layer.5]
kind = dense
units = 2
bias = true
""" + TRAIN,
    "baselines": """
[net]
input = 12x12x2
classes = 3

[layer.1]
kind = conv
out_channels = 3
bias = false
kernel_size = 3
stride = 1
padding = 1

[layer.2]
kind = dilated
out_channels = 3
bias = true
kernel_size = 3
dilation = 2
stride = 1,1
padding = 2

[layer.3]
kind = square_share
out_channels = 3
bias = true
kernel_size = 4
pool_size = 2
stride = 1
padding = 2

[layer.4]
kind = meanpool
size = 2
stride = 2

[layer.5]
kind = flatten

[layer.6]
kind = dense
units = 3
bias = false
""" + TRAIN,
}

HUGE = [str(2**31 - 1), str(2**31), str(2**32 + 1), str(10**12 + 1), str(2**63), str(2**70 + 1),
        str(10**200 + 1)]
VALUES = st.sampled_from(
    ["", "nope", "max", "relu", "true", "off", "2.5", "1e3", "3,3", "2,-1", "1,2,3",  # other types
     "0", "-1", "-7", "2", "4", "6", "inf", "-inf", "nan", *HUGE]  # moved values
)


def parse_spec(text):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return parser, [(section, key) for section in parser.sections() for key in parser[section]]


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("specs")


def builds_or_names_its_place(path, text):
    path.write_text(text)
    try:
        spec, _ = parse_net_file(path)
        build_network(spec, seed=0, require_logits=False)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") or re.match(r"layer\.\d+ \(\w+\): ", message), message


def change_one_key(base, section, key, value):
    parser, _ = parse_spec(SPECS[base])
    if value is None:
        del parser[section][key]
    else:
        parser[section][key] = value
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


@pytest.mark.parametrize("base", sorted(SPECS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), value=st.one_of(st.none(), VALUES))
def test_mutated_spec_builds_or_names_its_place(root, base, data, value):
    section, key = data.draw(st.sampled_from(parse_spec(SPECS[base])[1]), label="key")
    builds_or_names_its_place(root / f"{base}.cfg", change_one_key(base, section, key, value))


@pytest.mark.parametrize(
    "base, section, key, value",
    [("lpsc", "layer.1", "levels_r", str(2**31 - 1)), ("lpsc", "layer.1", "padding", str(2**31)),
     ("baselines", "layer.6", "units", str(2**31)), ("baselines", "layer.2", "kind", ""),
     ("lpsc", "layer.1", "size", str(10**200 + 1))],
    ids=["levels_r-huge", "padding-huge", "units-huge", "kind-empty", "size-huge"],
)
def test_mutation_found_by_the_fuzz_names_its_place(tmp_path, base, section, key, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGeometryWarning)
        builds_or_names_its_place(tmp_path / "net.cfg", change_one_key(base, section, key, value))


# field -> (the spec's text, the value the built config holds); every value
# differs from the field's default and from the base layer's own value
SETTINGS = {
    LpscConfig: {
        "kernel_size": ("7", 7), "levels_r": ("3", 3), "levels_theta": ("8", 8),
        "growth": ("1.5", 1.5), "alpha": ("0.25", 0.25), "eccentricity": ("0.5", 0.5),
        "stride": ("2,1", (2, 1)), "padding": ("3", (3, 3)), "pooling_mode": ("max", "max"),
        "center_conv": ("off", False),
    },
    DilatedConfig: {"kernel_size": ("5", 5), "dilation": ("3", 3), "stride": ("2", (2, 2)),
                    "padding": ("1,2", (1, 2))},
    SquareShareConfig: {"kernel_size": ("8", 8), "pool_size": ("3", 3), "stride": ("1,2", (1, 2)),
                        "padding": ("2", (2, 2))},
    TrainConfig: {"learning_rate": ("0.125", 0.125), "momentum": ("0.5", 0.5),
                  "weight_decay": ("0.001", 0.001), "batch_size": ("8", 8), "epochs": ("7", 7),
                  "seed": ("9", 9)},
}
BASE_LAYERS = {
    LpscConfig: {"kind": "lpsc", "out_channels": "2", "size": "9", "levels_r": "2",
                 "levels_theta": "6", "growth": "2"},
    DilatedConfig: {"kind": "dilated", "out_channels": "2", "kernel_size": "3"},
    SquareShareConfig: {"kind": "square_share", "out_channels": "2", "kernel_size": "6"},
    TrainConfig: {"kind": "relu"},
}
SPEC_KEY = {"kernel_size": "size", "pooling_mode": "pooling"}  # lpsc only


def test_settings_cover_every_field():
    for cls, table in SETTINGS.items():
        assert sorted(table) == sorted(f.name for f in fields(cls)), cls.__name__


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, table in SETTINGS.items() for name in table],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_every_config_field_is_set_from_its_key(tmp_path, cls, name):
    text, want = SETTINGS[cls][name]
    key = SPEC_KEY.get(name, name) if cls is LpscConfig else name
    sections = {"net": {"input": "24x24x1", "classes": "2"}, "layer.1": dict(BASE_LAYERS[cls]),
                "train": {}}
    section = sections["train" if cls is TrainConfig else "layer.1"]
    assert section.get(key) != text
    section[key] = text
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    path = tmp_path / "net.cfg"
    with open(path, "w") as fh:
        parser.write(fh)
    spec, train_cfg = parse_net_file(path)
    config = train_cfg if cls is TrainConfig else build_network(spec, require_logits=False).layers[0].config
    assert getattr(config, name) == want
    assert want != next(f.default for f in fields(cls) if f.name == name)  # MISSING if required
