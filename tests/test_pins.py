"""Byte pins of the dataset, export and input-normalization outputs.

For every split of a small matrix of dataset specs, the test saves the split
and hashes what comes out: the manifest digest, the ``.limg`` file, its JSON
sidecar, and the pixels and labels that ``load()`` hands back through
``arrays()``.  It also pins the noise functions called directly, the PGM
export of a constructed and of a constant image, and the network's input
normalization in float32 and float64.  Any change to the storage layout, the
noise draws or the min-max expression moves one of these hashes.  For the same
matrix it pins each split's objective-query cost, summed over the images.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import funcid.datasets
from funcid.datasets import (
    DatasetSpec,
    NoiseKind,
    NoiseSpec,
    Regime,
    add_gaussian_noise,
    add_uniform_noise,
    build_dataset,
    load,
    save,
)
from funcid.encoder import DomainMap, EncoderConfig, construct_image, write_pgm
from funcid.nn import init_model
from funcid.suite import Suite, make_instance, problem

BBOB = Suite.CONTINUOUS_BBOB


def _spec(regime=Regime.L1, image_type=1, dim=3, train=2, val=0, test=1, instances=1,
          unseen=0, domain=DomainMap.UNIT_CUBE, noise=NoiseSpec(), suite=BBOB, seed=11, n=4):
    return DatasetSpec(
        suite=suite,
        dim=dim,
        encoder=EncoderConfig(dim=dim, sample_size=n, image_type=image_type, frame_size=8,
                              domain_map=domain),
        regime=regime,
        per_class_train=train,
        per_class_val=val,
        per_class_test=test,
        instances_per_function=instances,
        unseen_instances_per_function=unseen,
        master_seed=seed,
        noise=noise,
    )


MATRIX = {
    "L1-type1-d3": _spec(),
    "L2-type3": _spec(regime=Regime.L2, image_type=3, instances=2, train=3, val=1),
    "L3-type5-bbob_box": _spec(regime=Regime.L3, image_type=5, instances=2, unseen=2,
                               domain=DomainMap.AFFINE_TO_BBOB_BOX),
    "gaussian-L1": _spec(noise=NoiseSpec(NoiseKind.GAUSSIAN_HALF_MAX), val=1),
    "uniform-L3": _spec(regime=Regime.L3, instances=2, unseen=1,
                        noise=NoiseSpec(NoiseKind.UNIFORM_RANGE, -2.5, 2.5)),
    "discrete-d4": _spec(suite=Suite.DISCRETE_PB, dim=4, train=3, val=2, test=2),
    "L2-type2": _spec(regime=Regime.L2, image_type=2, instances=2, train=3, val=1),
    "L3-type4-bbob_box": _spec(regime=Regime.L3, image_type=4, instances=2, unseen=2, train=3,
                               domain=DomainMap.AFFINE_TO_BBOB_BOX),
    "discrete-type5-d4": _spec(suite=Suite.DISCRETE_PB, dim=4, image_type=5, train=3, test=2),
    # N == M: no probe rows, several images per instance in every split.
    "L1-type1-n8": _spec(n=8, train=4, val=2, test=3),
}

# (case, split) -> the first 16 hex digits of: manifest digest, .limg file,
# sidecar, loaded pixels, loaded labels.
PINS = {
    ("L1-type1-d3", "train"):
        "de0caf2ca4f9f9e6 0c96ce7ffaea1c60 9d7fe9306c07921c e748e65909d7fa67 b390b6f8fa027696",
    ("L1-type1-d3", "val"):
        "e3b0c44298fc1c14 cd102bfd93022a2b 1c5e782b5014fba1 33dd5ff63c66540f 55ae42cc1e37a5eb",
    ("L1-type1-d3", "test"):
        "cbe65a060bf589de 66fc44e1ef6ced05 8dd4904293470951 ed2dc0f3be353560 0a77ef9f307d8da9",
    ("L2-type3", "train"):
        "ce3b6ec0d7a9908f 08edba8ee003bdfa c970fe720cf273c5 c69a00d321b1bcff ecc268073ba31e33",
    ("L2-type3", "val"):
        "a029ba3e84ed226a dab131679174c2ee 85a3c4469234301b 8a6c5e8a3bd54b56 0d776712e91f9805",
    ("L2-type3", "test"):
        "e5fb9361d54f7759 68e2a5a4484ca8f5 2e2bc459f0a76294 efc01242a5ed208c 0a77ef9f307d8da9",
    ("L3-type5-bbob_box", "train"):
        "f4e33ac1168bea4c 230ccfeb03cf4336 ad904c2511db08eb c271c17c4cec0c75 b390b6f8fa027696",
    ("L3-type5-bbob_box", "val"):
        "e3b0c44298fc1c14 cd102bfd93022a2b 190c9c8e1cf236ad 33dd5ff63c66540f 55ae42cc1e37a5eb",
    ("L3-type5-bbob_box", "test"):
        "bf8e2d40e6f9260e 7ed44e5f371f811a a02ea7f9de420100 5580917636d06bd0 0a77ef9f307d8da9",
    ("discrete-d4", "train"):
        "eb031f1fb03a9447 879a1c715770b1b0 2dbb9896a56a132f 0a5524af62bcad08 72d0ab39a942d836",
    ("discrete-d4", "val"):
        "2ea1e15b26f5a944 3ef2cdefebf07da2 d7bd8e3881199e2a a99b2fe46254b072 d68f5457aa0dbea0",
    ("discrete-d4", "test"):
        "a15a1d7197e677fa df273d2da7af062f 45cdddc9660cb687 48c365f490019793 261976f9d6a1c42f",
    ("gaussian-L1", "train"):
        "bd903a08ccb6686e 26ddd89e1f57f459 93f203741bfbd07d b7ab8dfc46edee8b b390b6f8fa027696",
    ("gaussian-L1", "val"):
        "4917920f5067a745 2daf9d0ef7eeb3b8 a065e7b854ff48fb 04204bc334d8d9e0 0d776712e91f9805",
    ("gaussian-L1", "test"):
        "dcf25dcb17c6e123 8ef6a065dcfbb5e1 4250c05ff9770496 c2f47d07ae0399e3 0a77ef9f307d8da9",
    ("uniform-L3", "train"):
        "7a733aa324d01a11 4aa7300179c8e3e8 c3fdcdbd48cd2f5c 4f84accbca1a1f80 b390b6f8fa027696",
    ("uniform-L3", "val"):
        "e3b0c44298fc1c14 cd102bfd93022a2b b907155aa5c6d9c6 33dd5ff63c66540f 55ae42cc1e37a5eb",
    ("uniform-L3", "test"):
        "55df6ce904e2c50c bc2ff6c436c7382a 6180fa791f88deca df56811c2b8e3eac 0a77ef9f307d8da9",
    ("L2-type2", "train"):
        "55a7de8810b926ab 815cba63181e7fa5 2b6f12d68ee3456a b4a12f73087f06fa ecc268073ba31e33",
    ("L2-type2", "val"):
        "a4c1110e914ee6a3 f0016cc644cd2408 c487afefe184c111 4f25b244312e74cf 0d776712e91f9805",
    ("L2-type2", "test"):
        "d23b4be3c5a1ac5d 87c3c4db2c0ec382 f0293c7d5511c27a c6aba0cd9ce31d8a 0a77ef9f307d8da9",
    ("L3-type4-bbob_box", "train"):
        "5e703c2aa5442ee8 1108c1aa8b356adc e1f42294fe762660 3b3a747fe7405c7a ecc268073ba31e33",
    ("L3-type4-bbob_box", "val"):
        "e3b0c44298fc1c14 cd102bfd93022a2b 4640259e4dd45272 33dd5ff63c66540f 55ae42cc1e37a5eb",
    ("L3-type4-bbob_box", "test"):
        "0ee3804446dc4684 d4e2e383cb46eee4 089dc82e0f802d87 cc6a876dc6d61812 0a77ef9f307d8da9",
    ("discrete-type5-d4", "train"):
        "46dedd42282b1a97 2f5e881511f9ea9d 5c949799d7431ef9 15fe0738936d6e28 72d0ab39a942d836",
    ("discrete-type5-d4", "val"):
        "e3b0c44298fc1c14 84af0c16e71c9126 a7e8f481d4906187 33dd5ff63c66540f 55ae42cc1e37a5eb",
    ("discrete-type5-d4", "test"):
        "1f01ce76e73fbfd7 6fb23eab88da6bff ac01185dfd5077dc 68bd7a79d774b8f2 261976f9d6a1c42f",
    ("L1-type1-n8", "train"):
        "4cfa0cf7c88fbade d3f92814c39a6ddc 485bb1e61b8c9236 91552dca2ceae142 5607fa9a0d8a67a5",
    ("L1-type1-n8", "val"):
        "f975813e0243ca32 aafef8d7a51a061b 8ff8273794d9c0df 2c1f53051ae03921 eaa820e3dbc29c11",
    ("L1-type1-n8", "test"):
        "5190dde7d96b46bd 5c3d438b193cf1b9 e887bbcadacd8e55 7a20274f5e7ff2b4 286a77ee8bcebaa5",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _array_sha(a: np.ndarray) -> str:
    head = f"{a.dtype.str}{a.shape}".encode("ascii")
    return _sha(head + np.ascontiguousarray(a).tobytes())


def _split_hashes(ds, path) -> tuple[str, ...]:
    save(ds, path)
    back = load(path)
    pixels, labels = back.arrays()
    sidecar = path.with_suffix(path.suffix + ".manifest.json")
    assert back.manifest.digest == ds.manifest.digest
    return (
        ds.manifest.digest[:16],
        _sha(path.read_bytes()),
        _sha(sidecar.read_bytes()),
        _array_sha(pixels),
        _array_sha(labels),
    )


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_split_bytes(case, tmp_path):
    splits = build_dataset(MATRIX[case])
    assert sorted(splits) == ["test", "train", "val"]
    got = {
        (case, name): " ".join(_split_hashes(ds, tmp_path / f"{name}.limg"))
        for name, ds in splits.items()
    }
    assert got == {key: PINS[key] for key in got}


def test_empty_val_split_is_pinned():
    # The L1 Type-1 case has no validation images; its val split is still
    # saved, loaded and pinned above.
    assert len(build_dataset(MATRIX["L1-type1-d3"])["val"]) == 0


# (case, split) -> (distinct, total) objective queries of the split's images:
# each image's distinct and all displayed rows, summed.  The discrete cases
# repeat sample rows and show samples equal to a probe.
QUERY_PINS = {
    ("L1-type1-d3", "train"): (240, 384),
    ("L1-type1-d3", "val"): (0, 0),
    ("L1-type1-d3", "test"): (120, 192),
    ("L1-type1-n8", "train"): (768, 768),
    ("L1-type1-n8", "val"): (384, 384),
    ("L1-type1-n8", "test"): (576, 576),
    ("L2-type2", "train"): (360, 576),
    ("L2-type2", "val"): (120, 192),
    ("L2-type2", "test"): (120, 192),
    ("L2-type3", "train"): (576, 576),
    ("L2-type3", "val"): (192, 192),
    ("L2-type3", "test"): (192, 192),
    ("L3-type4-bbob_box", "train"): (576, 576),
    ("L3-type4-bbob_box", "val"): (0, 0),
    ("L3-type4-bbob_box", "test"): (192, 192),
    ("L3-type5-bbob_box", "train"): (768, 768),
    ("L3-type5-bbob_box", "val"): (0, 0),
    ("L3-type5-bbob_box", "test"): (384, 384),
    ("discrete-d4", "train"): (80, 144),
    ("discrete-d4", "val"): (56, 96),
    ("discrete-d4", "test"): (54, 96),
    ("discrete-type5-d4", "train"): (165, 234),
    ("discrete-type5-d4", "val"): (0, 0),
    ("discrete-type5-d4", "test"): (106, 156),
    ("gaussian-L1", "train"): (240, 384),
    ("gaussian-L1", "val"): (120, 192),
    ("gaussian-L1", "test"): (120, 192),
    ("uniform-L3", "train"): (240, 384),
    ("uniform-L3", "val"): (0, 0),
    ("uniform-L3", "test"): (120, 192),
}


@pytest.mark.parametrize("case", sorted(MATRIX))
def test_split_query_cost(case, monkeypatch):
    calls = []

    def traced(*args):
        image = construct_image(*args)
        cost = image.query_cost
        calls.append((len(image.pixels), cost.distinct_queries, cost.total_queries))
        return image

    monkeypatch.setattr(funcid.datasets, "construct_image", traced)
    splits = build_dataset(MATRIX[case])
    # Splits are built in turn, one construct_image call per instance each.
    pending, got = iter(calls), {}
    for name, ds in splits.items():
        images = distinct = total = 0
        while images < len(ds):
            n, dq, tq = next(pending)
            images, distinct, total = images + n, distinct + dq, total + tq
        assert images == len(ds)
        got[(case, name)] = (distinct, total)
    assert next(pending, None) is None
    assert got == {key: QUERY_PINS[key] for key in got}


# name -> (manifest digest, pixels, labels), first 16 hex.
NOISE_PINS = {
    "gaussian-drawn": ("5a860c5c72c1bb07", "f92702afebdcccfb", "b390b6f8fa027696"),
    "gaussian-amplitude-1": ("1b56bcb141e67263", "c50c81ba17906a13", "b390b6f8fa027696"),
    "uniform": ("4001397d58c4dd4e", "66d4899ed7f38344", "b390b6f8fa027696"),
}


def _noise_cases(ds):
    return {
        "gaussian-drawn": add_gaussian_noise(ds, seed=21),
        "gaussian-amplitude-1": add_gaussian_noise(ds, seed=22, amplitude=1.0),
        "uniform": add_uniform_noise(ds, -1.5, 0.5, seed=23),
    }


def test_noise_functions_bytes():
    ds = build_dataset(_spec(train=2, test=0))["train"]
    got = {}
    for name, noisy in _noise_cases(ds).items():
        pixels, labels = noisy.arrays()
        got[name] = (noisy.manifest.digest[:16], _array_sha(pixels), _array_sha(labels))
        assert noisy.manifest.noise_applied and len(noisy) == len(ds)
    assert got == NOISE_PINS


PGM_PINS = {"constructed": "83ed31f1b63300ef", "constant": "5daedf5fc0412fac"}


def test_pgm_bytes(tmp_path):
    cfg = EncoderConfig(dim=3, sample_size=4, image_type=1, frame_size=8)
    img = construct_image(make_instance(problem(BBOB, 7), 3, 5), cfg, sample_seed=9)
    got = {}
    for name, pixels in (("constructed", img.pixels), ("constant", np.full((8, 8), 3.5))):
        path = tmp_path / f"{name}.pgm"
        write_pgm(path, pixels)
        got[name] = _sha(path.read_bytes())
    assert got == PGM_PINS


INPUT_NORM_PINS = {"float32": "e073370f4b56d3a0", "float64": "5210aaaeb2e425ad"}


def test_apply_input_norm_bytes():
    g = np.random.default_rng(5)
    batch = g.standard_normal((4, 8, 8)) * 37.0 + 4.0
    batch[1] = 2.25  # a constant image maps to zeros
    batch[2] = g.integers(-3, 4, (8, 8))
    got = {}
    for dtype in ("float32", "float64"):
        model = init_model("perceptron1", 24, 8, seed=0, dtype=dtype)
        got[dtype] = _array_sha(model.apply_input_norm(batch))
    assert got == INPUT_NORM_PINS
