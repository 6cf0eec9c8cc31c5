"""Frozen outputs: a byte gate on what the library prints and samples.

For each ``rig`` invocation in ``CASES`` the table ``EXPECTED`` holds its
exit code and the sha256 of its stdout, its stderr and the CSV it writes
(None where it writes none); ``BATCH_EXPECTED`` holds the sha256 of
``sample_batch``'s groups, objects and offsets for a few (params, seed,
range) cases.  Each invocation runs in-process through ``cli.main`` in an
empty directory, with relative paths and one worker, so no output holds a
machine path.  A change that alters any of these bytes fails here.

The digests were taken from the tree named in CHANGES.md.  Running this
file as a script prints both tables from the current tree; paste them in
only when a change of output is intended, and say so in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from rigraph import ModelParams, sample_batch
from rigraph.cli import main

ROOT = Path(__file__).resolve().parent.parent
EMPTY = hashlib.sha256(b"").hexdigest()

_MODEL = ("--n", "200", "--P", "400", "--a", "0.5,0.5", "--K", "3,6")
_CONFIG = {
    "schema": 1,
    "base": {"n": 120, "P": 240, "a": [0.5, 0.5], "K": [2, 4]},
    "axis": "n",
    "points": [60, 120, 200],
    "trials": 100,
    "master_seed": 5,
    "output_path": "out.csv",
}


def _config(**over) -> dict:
    return {**_CONFIG, **over}


# name -> (argv, sweep config); a config, a dict or raw text, is written to cfg.json
CASES = {
    "prob-worked": (("prob", "--n", "2", "--P", "5", "--a", "0.5,0.5", "--K", "1,2"), None),
    "prob-readme": (("prob", "--n", "2000", "--P", "4000", "--a", "0.5,0.5", "--K", "3,6"), None),
    "prob-three-groups": (("prob", "--n", "500", "--P", "1000", "--a", "0.2,0.3,0.5", "--K", "2,3,5"), None),
    "prob-full-pool": (("prob", "--n", "100", "--P", "100", "--a", "1", "--K", "100"), None),
    "prob-cross-moment-inf": (("prob", "--n", "2000", "--P", "3", "--a", "0.5,0.5", "--K", "1,3"), None),
    "prob-large-pool": (("prob", "--n", "1000", "--P", str(10**9), "--a", "1", "--K", "400"), None),
    "prob-bad-weights": (("prob", "--n", "2", "--P", "5", "--a", "0.4,0.4", "--K", "1,2"), None),
    "prob-nan-weight": (("prob", "--n", "10", "--P", "5", "--a", "nan", "--K", "1"), None),
    "prob-ring-past-pool": (("prob", "--n", "10", "--P", "5", "--a", "1", "--K", "6"), None),
    "prob-unsorted-rings": (("prob", "--n", "10", "--P", "50", "--a", "0.5,0.5", "--K", "4,3"), None),
    "solve-readme": (("solve", "--n", "1000", "--P", "10000", "--a", "1", "--ratios", "1", "--target-beta", "0"), None),
    "solve-two-groups": (
        ("solve", "--n", "2000", "--P", "4000", "--a", "0.5,0.5", "--ratios", "1,2", "--target-beta", "-2"),
        None,
    ),
    "solve-three-groups": (
        ("solve", "--n", "500", "--P", "100000", "--a", "0.2,0.3,0.5", "--ratios", "1,1.5,2", "--target-beta", "1.5"),
        None,
    ),
    "solve-unachievable": (("solve", "--n", "10", "--P", "4", "--a", "1", "--ratios", "1", "--target-beta", "1000"), None),
    "solve-nan-ratio": (
        ("solve", "--n", "100", "--P", "1000", "--a", "0.5,0.5", "--ratios", "1,nan", "--target-beta", "0"),
        None,
    ),
    "solve-ratio-below-one": (
        ("solve", "--n", "100", "--P", "1000", "--a", "0.5,0.5", "--ratios", "1,0.5", "--target-beta", "0"),
        None,
    ),
    "diag-readme": (("diag", "--n", "2000", "--P", "4000", "--a", "0.5,0.5", "--K", "3,6"), None),
    "diag-window": (("diag", "--n", "1000", "--P", "10000", "--a", "1", "--K", "80", "--window", "0.5"), None),
    "diag-subcritical": (("diag", "--n", "100", "--P", "10000", "--a", "1", "--K", "1"), None),
    "diag-bad-window": (("diag", "--n", "100", "--P", "1000", "--a", "1", "--K", "5", "--window", "-1"), None),
    "oracle-pair": (("oracle", "pair", "--P", "5", "--Ki", "2", "--Kj", "2"), None),
    "oracle-pair-unequal": (("oracle", "pair", "--P", "12", "--Ki", "3", "--Kj", "5"), None),
    "oracle-events-two": (("oracle", "events", "--n", "2", "--P", "5", "--a", "0.5,0.5", "--K", "1,2"), None),
    "oracle-events-three": (("oracle", "events", "--n", "3", "--P", "5", "--a", "0.5,0.5", "--K", "1,2"), None),
    "oracle-events-over-budget": (("oracle", "events", "--n", "10", "--P", "30", "--a", "1", "--K", "5"), None),
    "simulate-two-groups": (("simulate", *_MODEL, "--trials", "200", "--seed", "42", "--out", "out.csv"), None),
    "simulate-three-groups": (
        ("simulate", "--n", "60", "--P", "120", "--a", "0.2,0.3,0.5", "--K", "2,3,12",
         "--trials", "150", "--seed", "7", "--out", "out.csv"),
        None,
    ),
    "simulate-certain": (
        ("simulate", "--n", "20", "--P", "5", "--a", "1", "--K", "5", "--trials", "40", "--seed", "11", "--out", "out.csv"),
        None,
    ),
    "simulate-no-directory": (("simulate", *_MODEL, "--trials", "10", "--seed", "1", "--out", "none/out.csv"), None),
    "simulate-pool-too-large": (
        ("simulate", "--n", "20", "--P", str(2**53 + 1), "--a", "1", "--K", "5",
         "--trials", "10", "--seed", "1", "--out", "out.csv"),
        None,
    ),
    "sweep-n": (("sweep", "cfg.json"), _config()),
    "sweep-P": (("sweep", "cfg.json"), _config(axis="P", points=[150, 240, 400], trials=150)),
    "sweep-K1-scale": (("sweep", "cfg.json"), _config(axis="K1-scale", points=[0.5, 1, 1.5], master_seed=9)),
    "sweep-beta-target": (
        ("sweep", "cfg.json"),
        _config(base={"n": 200, "P": 400, "a": [0.5, 0.5]}, ratios=[1, 2], axis="beta-target",
                points=[-2, 0, 2], trials=200, master_seed=101),
    ),
    "sweep-no-master-seed": (("sweep", "cfg.json"), {k: v for k, v in _CONFIG.items() if k != "master_seed"}),
    "sweep-fractional-trials": (("sweep", "cfg.json"), _config(trials=2.5)),
    "sweep-unsorted-points": (("sweep", "cfg.json"), _config(points=[120, 60])),
    "sweep-bad-json": (("sweep", "cfg.json"), "schema: 1"),
    "sweep-nan-ratio": (
        ("sweep", "cfg.json"),
        '{"schema": 1, "base": {"n": 200, "P": 400, "a": [0.5, 0.5]}, "ratios": [1, NaN], '
        '"axis": "beta-target", "points": [-1, 1], "trials": 10, "master_seed": 1, "output_path": "out.csv"}',
    ),
    "sweep-missing-config": (("sweep", "nope.json"), None),
}

# name -> (model, master_seed, start, stop); 46 trials make one batch of the
# run at n=200, K=(3,6), so trials 40..52 cross a boundary of its batches
BATCH_CASES = {
    "two-groups": ((60, (0.5, 0.5), (2, 4), 120), 7, 0, 5),
    "three-groups-dense": ((40, (0.2, 0.3, 0.5), (2, 3, 12), 60), 11, 3, 9),
    "one-group-long-rings": ((30, (1.0,), (16,), 1000), 3, 0, 4),
    "across-a-batch": ((200, (0.5, 0.5), (3, 6), 400), 42, 40, 52),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str) -> tuple:
    """(exit code, stdout sha256, stderr sha256, CSV sha256 or None) of one
    case, run in the current directory, which must be empty."""
    argv, config = CASES[name]
    if config is not None:
        Path("cfg.json").write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    csv = Path("out.csv")
    return (
        code,
        _sha(out.getvalue().encode()),
        _sha(err.getvalue().encode()),
        _sha(csv.read_bytes()) if csv.exists() else None,
    )


def batch_digests(name: str) -> tuple[str, str, str]:
    (n, a, K, P), master_seed, start, stop = BATCH_CASES[name]
    batch = sample_batch(ModelParams(n=n, a=a, K=K, P=P), master_seed, start, stop)
    return tuple(_sha(np.asarray(x, dtype="<i8").tobytes()) for x in (batch.groups, batch.objects, batch.offsets))


EXPECTED = {
    "prob-worked": (0, "61d461e814edcae0e870353824a365d3a32504e2a2a7adbd1965f84defe65c77", EMPTY, None),
    "prob-readme": (0, "8cadb2db8fceccfa5328819c4e6451a5a9fdb0a0790a0a158c2466efaeda65ed", EMPTY, None),
    "prob-three-groups": (0, "c19313cbc5f9babdd86fbc905d9a3e3889efe445afad05919d73c672d6507d35", EMPTY, None),
    "prob-full-pool": (0, "1745efba066178c6274f16d63f2195194c2e1d9933cf0c0f9e8b6e0075b97e03", EMPTY, None),
    "prob-cross-moment-inf": (0, "8ebe2063064a7875bc53d2d71e8ef57d753f972bbf5cb4698d84a88e80774868", EMPTY, None),
    "prob-large-pool": (0, "3f3ab307b266dba029b0b8240381b43021ab7201e8060caddcb9ecab2a54f00e", EMPTY, None),
    "prob-bad-weights": (2, EMPTY, "19efc7908b36518498c965f16cc194271237a3cf89d77b136449679dd757701b", None),
    "prob-nan-weight": (2, EMPTY, "41e973714920fd9df3a59b9d6864bf7af2f2b3134377ca2c733485988c7c9a1d", None),
    "prob-ring-past-pool": (2, EMPTY, "187cd2beda002d3c38cd4a02a7e97a21a8e0a454eae9959a50360692878a1cd1", None),
    "prob-unsorted-rings": (2, EMPTY, "2695b776e2273650516e4f288bda958c6f61b6afff43a3d0b596fd921284492e", None),
    "solve-readme": (0, "152aa6d94e3770eb80543a3d7a0e4d74e036e2bf64fa1945d5b3066547a5772c", EMPTY, None),
    "solve-two-groups": (0, "f780a48189820474800f7c621f8d06a39aa3eb1198d3f1c4ba92f2433672724a", EMPTY, None),
    "solve-three-groups": (0, "433d81ffcfbbbffa3ec52a9d749b4c7d074dee8a01854005b7eb92fdb367a747", EMPTY, None),
    "solve-unachievable": (2, EMPTY, "405f770bc2e5ecfe6e67d56118480f8f7c68c5b6508d11d2f18d5ed7a4ccd494", None),
    "solve-nan-ratio": (2, EMPTY, "7ea36cc365ea1e03a6b4afca231feb19fd27679047f3f488ee82d2ac9beb79cd", None),
    "solve-ratio-below-one": (2, EMPTY, "917f3519f5e0395d3ef5adc30716a0fa5072f9454e117cfff2d74c2642bf627f", None),
    "diag-readme": (0, "f27f38865e56e50a2801f5794bcffd749433c9d75cadfd1ba4773f9914fd2b35", EMPTY, None),
    "diag-window": (0, "fccdbb9a2100d1f67bf6a9ff0ed4ed579512707661b5c8417e06f0191293f298", EMPTY, None),
    "diag-subcritical": (0, "0c834f55177284b20bbfa8cce4f8b6334449b3e7d1d26cdb01a3c4ac7cce58c1", EMPTY, None),
    "diag-bad-window": (2, EMPTY, "975dbab007f865b1cc40ed7cd174042553ed7528515ae3b47a58069ff69982c9", None),
    "oracle-pair": (0, "85e0ea1257387a763ea412a5a9db34ecc2af95f49aa7b5cad75834c7db765f44", EMPTY, None),
    "oracle-pair-unequal": (0, "bb2562242ccfc530d1c983deed52c143c52a2ea1d35c35454755cab00d6bccf2", EMPTY, None),
    "oracle-events-two": (0, "34661697845662bada106f9b992ec797c0944122f399989b75cd3119ed8e21e1", EMPTY, None),
    "oracle-events-three": (0, "ecefb569dd23a7cfef865c7a2a9a67385d8a866a3e5035e1eeca5234d1abd9dc", EMPTY, None),
    "oracle-events-over-budget": (3, EMPTY, "8bf5060fff1265a8552379239112b1c13db0b485addf9e7780c30165d26d96ae", None),
    "simulate-two-groups": (0, "dc155d791fa41133841402c3ef4081e3988638d4014904a296d4bb6f7a17b1e8", EMPTY, "fd70029b13bf3833b592a368ec6d2b4de068a3da3eca007ea1984faf49354360"),
    "simulate-three-groups": (0, "a7fb3168770694ce2befb1ac759a3c8cb1cba9b5e589b531fb3a035ad7e923a7", EMPTY, "7e6bf82b97a9f0c68f1f02fb9c292ef2243ecd9e6d77d675b8f86e89d26c6067"),
    "simulate-certain": (0, "a1a8599f9070e2ac50327a5e9d566c490d8036b4f03accb1c4538f0d008f542c", EMPTY, "0cd697a5fdd9886c19f359b96d5faf1207a88a96692b3ec26c68e4cbd7ca7c86"),
    "simulate-no-directory": (2, EMPTY, "249b68568774322f20043887d699b0981d03bb2cb0caf57fc6a499bda428006c", None),
    "simulate-pool-too-large": (2, EMPTY, "17a1c6644c6bd4dab2db6f1da52339ff1949a4e12c3a27286d440c71d62d6c20", None),
    "sweep-n": (0, "338816b74b4bd7619e92f6ab3a94e94229fa727ff0d2ea7acd340c6462000c99", EMPTY, "aa200fbe2daa16dbcb3a82d37a60834ce9ee1f4cb77d947e87721b6fe630062e"),
    "sweep-P": (0, "4e76ec4d53cfab96abfe6899cea28928fe304904d58e29d664ce47338f081462", EMPTY, "626c52b592032fbdc820f75800449618d716769c74b079af22b113403de34da7"),
    "sweep-K1-scale": (0, "9eb290551c4cbba6258cdf2e9d692b7a7995b3f58f4ffbe4dc75bb2114f2376b", EMPTY, "74a4895075612defdd2d59040e81613895983eac31f48cfd24e7496d1753010b"),
    "sweep-beta-target": (0, "98e26036e2581fe82d27f062ff250cd6f1f50d560acef7621f4f4380f578729c", EMPTY, "09baa80af0bf8b2a1bb3d7cd81eeb19142ccf853cef25d821889256221c14520"),
    "sweep-no-master-seed": (2, EMPTY, "27e9723238452d1e3701d960d66cff998a0f85b517b98319af16566433b017d2", None),
    "sweep-fractional-trials": (2, EMPTY, "35706bc6be22d455aa18075c908e60b3b21c1e1935d18cbe358de5202b29797d", None),
    "sweep-unsorted-points": (2, EMPTY, "b1941f9d3d7038a1b622ea418173b403df8595fc70c5260ade101c74a35c7029", None),
    "sweep-bad-json": (2, EMPTY, "5065c192896fe976ab71b99d136244b0e3e3438d50f5945696e5732492df19ed", None),
    "sweep-nan-ratio": (2, EMPTY, "7ea36cc365ea1e03a6b4afca231feb19fd27679047f3f488ee82d2ac9beb79cd", None),
    "sweep-missing-config": (2, EMPTY, "ef652519b52d861d1ab078973e2f3ca4b1d335b4ac19bd851f7281fe18246f7d", None),
}

BATCH_EXPECTED = {
    "two-groups": ("7db828d0109a663c7b5722b2fb5a4f2950c8989289de97c933ec7191d2afac33", "a0a001e8b3ac5286c17682400b2cd05100b0261388ab08cf74f49ec765741ecb", "5c925b37126d616388455868f78bbcddc74ba189a0187e3b9da11b5966922556"),
    "three-groups-dense": ("7bc70aa904c26baea499f39fd1f3cf1947d72739b862ffea2d9878d9063c573e", "c0f85def519fe447438c2571c4693f126ea853f05ae007907dc43ed787190d45", "54f36123eda6cf08f1f51e526b0108ab1b560585b5121441d98760a33610fcba"),
    "one-group-long-rings": ("0d9ef711ae0e58601f3d391c4993de223376627e7eeb4b2235040b9fb5ba1007", "2ec36d2054655d833007f7c5430d6e29c632b44c76a65444ae921a3cef32a67f", "6985d6ba6163785e21b92169890b4a05a3cc8bfde920daec679369984c643e02"),
    "across-a-batch": ("a1107659f19cb1cad6968e36eb54669a0295c050358c8fae54a0954a378f4aef", "58a4fd301a4f1d7338f194a0b3d7891a544f131e9f4693b60ddadc73c374e46a", "f27deacd19ac55c5483338ae7f058cb478b9de0c8a3b9870d52f8041bdebffcc"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rig_output_bytes(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RIG_THREADS", "1")
    assert run_case(name) == EXPECTED[name]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_sample_batch_bytes(name):
    assert batch_digests(name) == BATCH_EXPECTED[name]


def test_module_entry_point_bytes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "rigraph", *CASES["prob-readme"][0]],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert (done.returncode, _sha(done.stdout), _sha(done.stderr), None) == EXPECTED["prob-readme"]


def _print_tables() -> None:
    """Print ``EXPECTED`` and ``BATCH_EXPECTED`` as computed by this tree."""

    def literal(digest):
        return "EMPTY" if digest == EMPTY else "None" if digest is None else f'"{digest}"'

    os.environ["RIG_THREADS"] = "1"
    home = os.getcwd()
    print("EXPECTED = {")
    for name in CASES:
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                code, *digests = run_case(name)
            finally:
                os.chdir(home)
        print(f'    "{name}": ({code}, {", ".join(map(literal, digests))}),')
    print("}\n\nBATCH_EXPECTED = {")
    for name in BATCH_CASES:
        print(f'    "{name}": ({", ".join(map(literal, batch_digests(name)))}),')
    print("}")


if __name__ == "__main__":
    _print_tables()
