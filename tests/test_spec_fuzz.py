"""Mutated spec files: a one-key mutation builds, or raises ValueError naming its place.

Each sweep starts from a valid spec that states every key a layer kind,
``[net]`` and ``[train]`` know, and changes one key: drops it, gives it
a value of another type, or moves its value (to 0, a negative, an even
or a huge number, or a non-finite one). Every key is tried with every
mutation. Parsing and building (without a forward pass) then return, or
raise ValueError naming the file or the layer. No other exception type
may escape.
"""

import configparser
import io
import itertools
import re
import typing
import warnings
from dataclasses import fields

import pytest

from logpolar.baselines import DilatedConfig, SquareShareConfig
from logpolar.geometry import DegenerateGeometryWarning, LpscConfig
from logpolar.network import LayerSpec, NetSpec, TrainConfig, build_network, parse_net_file

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
VALUES = ["", "nope", "max", "relu", "true", "off", "2.5", "1e3", "3,3", "2,-1", "1,2,3",  # other types
          "0", "-1", "-7", "2", "4", "6", "inf", "-inf", "nan", *HUGE]  # moved values


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
        message, layer = str(exc), r"layer\.\d+ \(\w+\): "
        assert message.startswith(f"{path}: ") or re.match(layer, message), message
        if not message.startswith(f"{path}: "):
            assert len(re.findall(layer, message)) == 1, message  # one place names the layer


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
def test_mutated_spec_builds_or_names_its_place(root, base):
    keys = parse_spec(SPECS[base])[1]
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGeometryWarning)
        for (section, key), value in itertools.product(keys, [None, *VALUES]):
            try:
                text = change_one_key(base, section, key, value)
                builds_or_names_its_place(root / f"{base}.cfg", text)
            except Exception as exc:  # every failing case is reported below
                failures.append(f"[{section}] {key} = {value!r}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize(
    "base, section, key, value",
    [("lpsc", "layer.1", "levels_r", str(2**31 - 1)), ("lpsc", "layer.1", "padding", str(2**31)),
     ("baselines", "layer.6", "units", str(2**31)), ("baselines", "layer.2", "kind", ""),
     ("lpsc", "layer.1", "size", str(10**200 + 1)), ("lpsc", "layer.1", "growth", str(10**400)),
     ("lpsc", "train", "learning_rate", str(10**400))],
    ids=["levels_r-huge", "padding-huge", "units-huge", "kind-empty", "size-huge",
         "growth-past-every-float", "learning_rate-past-every-float"],
)
def test_mutation_found_by_the_fuzz_names_its_place(tmp_path, base, section, key, value):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateGeometryWarning)
        builds_or_names_its_place(tmp_path / "net.cfg", change_one_key(base, section, key, value))


LAYER_KINDS = ("('conv', 'lpsc', 'dilated', 'square_share', 'relu', 'maxpool', 'meanpool', "
               "'flatten', 'dense')")
ADDED_SECTIONS = ["layer.0", "layer.-3", "layer.01", "layer.1_0", "layer.+2", "layer.x"]


@pytest.mark.parametrize(
    "old, new, section, message",
    [("[layer.5]", "[layer.7]", "layer.7",
      "unknown section [layer.7]; the next layer section is [layer.5]"),
     *((TRAIN, f"[{name}]\nkind = relu\n{TRAIN}", name,
        f"unknown section [{name}]; the next layer section is [layer.6]") for name in ADDED_SECTIONS),
     ("[layer.2]\nkind = relu", "[layer.2]", "layer.2",
      f"[layer.2]: kind must be one of {LAYER_KINDS}, got None"),
     ("kind = relu", "kind = bogus", "layer.2",
      f"[layer.2]: kind must be one of {LAYER_KINDS}, got 'bogus'")],
    ids=["gap", "zero", "negative", "leading-zero", "underscore", "plus", "not-a-number",
         "kind-missing", "kind-unknown"],
)
def test_every_layer_section_is_named_as_the_file_holds_it(tmp_path, old, new, section, message):
    path = tmp_path / "net.cfg"
    path.write_text(SPECS["lpsc"].replace(old, new))
    with pytest.raises(ValueError) as info:
        parse_net_file(path)
    assert str(info.value) == f"{path}: {message}" and f"[{section}]" in message


# field -> (the spec's text, the value the built config holds, wrong-typed values); every
# value differs from the field's default and from the base layer's own value. A wrong-typed
# value is a float for an int, 1 for a bool, "x" for a float and (2.9, 1) or a bare float for a
# pair; the window operators' own probes are in test_tensor_core's geometry table
SETTINGS = {
    LpscConfig: {
        "kernel_size": ("7", 7, (5.0,)), "levels_r": ("3", 3, (1.5,)),
        "levels_theta": ("8", 8, (4.0,)), "growth": ("1.5", 1.5, ("x",)),
        "alpha": ("0.25", 0.25, ("x",)), "eccentricity": ("0.5", 0.5, ("x",)),
        "stride": ("2,1", (2, 1), ((2.9, 1), 1.5, True)), "padding": ("3", (3, 3), ((2.9, 1), 0.5)),
        "pooling_mode": ("max", "max", (1,)), "center_conv": ("off", False, (1, "no")),
    },
    DilatedConfig: {"kernel_size": ("5", 5, (3.0,)), "dilation": ("3", 3, (1.5,)),
                    "stride": ("2", (2, 2), ((2.9, 1), 1.5)),
                    "padding": ("1,2", (1, 2), ((2.9, 1), 0.5))},
    SquareShareConfig: {"kernel_size": ("8", 8, (4.0,)), "pool_size": ("3", 3, (2.0,)),
                        "stride": ("1,2", (1, 2), ((2.9, 1), 1.5)),
                        "padding": ("2", (2, 2), ((2.9, 1), 0.5))},
    TrainConfig: {"learning_rate": ("0.125", 0.125, ("x",)), "momentum": ("0.5", 0.5, ("x",)),
                  "weight_decay": ("0.001", 0.001, ("x",)), "batch_size": ("8", 8, (2.5,)),
                  "epochs": ("7", 7, (2.5,)), "seed": ("9", 9, (1.5,))},
}
# field -> a value of its type that the config refuses (a flag has no range: another wrong type)
PAST_RANGE = {
    LpscConfig: {"kernel_size": 4, "levels_r": 0, "levels_theta": 7, "growth": 1.0,
                 "alpha": float("inf"), "eccentricity": 1.0, "stride": (0, 1), "padding": (1, -1),
                 "pooling_mode": "median", "center_conv": None},
    DilatedConfig: {"kernel_size": 4, "dilation": 0, "stride": 0, "padding": -1},
    SquareShareConfig: {"kernel_size": 0, "pool_size": 0, "stride": (1, 0), "padding": -2},
    TrainConfig: {"learning_rate": -0.5, "momentum": 1.0, "weight_decay": -1e-3, "batch_size": 0,
                  "epochs": 0, "seed": -1},
    NetSpec: {"input_shape": (16, 0, 1), "num_classes": 1},  # a LayerSpec checks its own kind
}
NET_SPEC_WRONG_TYPES = {"input_shape": (16, 16.5, 1), "num_classes": 2.5}
BASE_LAYERS = {
    LpscConfig: {"kind": "lpsc", "out_channels": "2", "size": "9", "levels_r": "2",
                 "levels_theta": "6", "growth": "2"},
    DilatedConfig: {"kind": "dilated", "out_channels": "2", "kernel_size": "3"},
    SquareShareConfig: {"kind": "square_share", "out_channels": "2", "kernel_size": "6"},
    TrainConfig: {"kind": "relu"},
}
SPEC_KEY = {"kernel_size": "size", "pooling_mode": "pooling"}  # lpsc only
TYPE_WORDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
              tuple[int, int]: "an integer or a pair of integers"}  # annotation -> its type error
REQUIRED = {LpscConfig: {"kernel_size": 5, "levels_r": 1, "levels_theta": 4, "growth": 2},
            DilatedConfig: {"kernel_size": 3}, SquareShareConfig: {"kernel_size": 4}, TrainConfig: {},
            NetSpec: {"layers": [], "input_shape": (16, 16, 1), "num_classes": 2},
            LayerSpec: {"kind": "relu"}}


def test_settings_cover_every_field():
    for cls, table in SETTINGS.items():
        assert sorted(table) == sorted(f.name for f in fields(cls)), cls.__name__
    for cls, table in PAST_RANGE.items():
        assert sorted(table) == sorted(f.name for f in fields(cls) if f.name != "layers"), cls
    assert sorted(NET_SPEC_WRONG_TYPES) == sorted(PAST_RANGE[NetSpec])


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, table in SETTINGS.items() for name in table],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_every_config_field_is_set_from_its_key(tmp_path, cls, name):
    text, want, _ = SETTINGS[cls][name]
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


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, table in SETTINGS.items() for name in table],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_every_config_field_refuses_a_wrong_type(cls, name):
    cls(**REQUIRED[cls])  # the required fields alone build
    what = TYPE_WORDS[typing.get_type_hints(cls)[name]]
    for wrong in SETTINGS[cls][name][2]:
        with pytest.raises(ValueError, match="^" + re.escape(f"{name} must be {what}, got {wrong!r}")):
            cls(**{**REQUIRED[cls], name: wrong})


@pytest.mark.parametrize(
    "cls, name, value",
    [(cls, name, value) for cls, table in PAST_RANGE.items() for name, value in table.items()]
    + [(cls, name, SETTINGS[cls][name][2][0]) for cls in SETTINGS for name in SETTINGS[cls]]
    + [(NetSpec, name, value) for name, value in NET_SPEC_WRONG_TYPES.items()]
    + [(NetSpec, "input_shape", value) for value in (16, None)]  # not a sequence at all
    # a library caller's layer list: LayerSpecs in a list or tuple, each with a dict of options
    + [(NetSpec, "layers", value) for value in (["relu"], "relu", None, (LayerSpec("relu"), 5))]
    + [(LayerSpec, "options", value) for value in (5, None, [("size", 5)])],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_every_config_error_starts_with_its_field(cls, name, value):
    # the contract conv.renamed relies on to put a spec key or a flag in the field's place
    with pytest.raises(ValueError) as info:
        cls(**{**REQUIRED[cls], name: value})
    assert str(info.value).split(" ", 1)[0] == name
