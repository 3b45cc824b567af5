"""Golden SHA-256 digests of the CLI's reports.

A refactor or a speed-up must leave every report byte-identical for a
fixed configuration.  These digests pin the ``verify --which all``
report of every catalog cubic at three seeds and the ``extract
--embedding --compare j3o-norm`` files of every type the extraction
accepts (G2, F4, E6-E8, B3-B8, D4-D8) with its exit code.  A documented
schema change re-records them: ``python tests/test_golden_reports.py``
prints the current table.
"""

import hashlib

import pytest

from cubicontact.catalog import catalog_get, catalog_list
from cubicontact.cli import main
from cubicontact.cubic import dumps_tensor

SEEDS = (0, 7, 11)
BUDGET = 10 ** 5


def _samples(name: str) -> int:
    return 2 if name == "j3o-norm" else 5


VERIFY_DIGESTS = {
    ('det-sym-3', 0): '7f5aaad7a5e30f9ed1b6907219ae2d30d39bce6e0378e5d3ed8759ef48a1298d',
    ('det-sym-3', 7): '0ef2bf1f8cba590ec779d2efcd74a41010687b65067f4363a069205ae8e417fc',
    ('det-sym-3', 11): 'd9ea3cad6c0117256d91a7fb26cc845976dffac36e8061fc2f882fb50a049538',
    ('det3', 0): '3a5f0390ef7f58b33b2ac59d34668cbec91f0fe6ff17914d2432aa1ba0474fda',
    ('det3', 7): 'c37aad2d9b4167f0b9db973497c28507e166817f1d3d6de16a459f888f457216',
    ('det3', 11): '77fe8b2048dbc68ef789ed0c0af890426d3b40390ec82ffe6d732abc809bc7e1',
    ('fermat3', 0): '9dd32ecc76694062d8c40380cc8442e1a89a60f5c93ebe2dd4de1d8f0f160ca3',
    ('fermat3', 7): 'ff5cc1bd190d86cb6d711ebf6925c7f473ac7244db35e60623053066523c7673',
    ('fermat3', 11): 'a13430cb692f8740331f6445894ed01381e60ffeae63364c04c978f10993e9e9',
    ('j3o-norm', 0): 'a32ae90754e8aa59c9b5b49c607c7ed377a756cf97606dc952cd07350e11af99',
    ('j3o-norm', 7): 'da861b7158196258f820dad8ed5a84819f3091f68fdc0cdc7134b19a657da832',
    ('j3o-norm', 11): '6d3ca29640b950ce3c9bfd72e2213534a4f408cf3b9a21cde0c9afbe24df0311',
    ('pfaff6', 0): '92ebd424c00cd1bf35ea336705b11bf8876cfd7859099757b677449824adf2c6',
    ('pfaff6', 7): 'e0c82459bf213b40454f9159b825e2eb8c5601b7f257309100e14579b8668d89',
    ('pfaff6', 11): 'def2d364ad28bcdb64c58aeafec3d4ae79653986f789ee682a656b1af702b43f',
    ('x3', 0): 'a950545a3ba2d274ebd378de379b4ae32c4c7977ff8ffb72ea5bf2bef74b1612',
    ('x3', 7): '90390e7121c3bcd546f8ae56dc26c7f4b1d8ca8fa7c6a4047ceac7f69706fca0',
    ('x3', 11): '30e1a1d24e1756f0e3c10d9b184d375071788f0a0d547770f3bc8f0d15cdc2f8',
    ('xq5', 0): '6271dfb0dc8dc267c6d9d43d8d23aa37ea64807f335df1dcac198d0cc7812d9a',
    ('xq5', 7): 'f0226fe5b95b964fbad24897b098d17cc27bdec9b83a22172e2319caec35d6f6',
    ('xq5', 11): '1838f9310cbd45f7bef665c4dd92187193358234a715d7f2565e7552ab0e99ee',
    ('xyz', 0): 'd8eb7dd1698de0f4eb426eb9e32451d8c0bfe5cbbd632a4c7ba09dbbbbac743e',
    ('xyz', 7): 'd55d83afcc9f637b3d5688d4f486b1b9486e1337406644f4d84514ae5bcd2a3a',
    ('xyz', 11): '3cfbf5c8ce27f7f7c230e17991e70e50462b61fb68fdc7fb1f7054d90900b34f',
}

EXTRACT_DIGESTS = {
    'B3': {
        'extract-report-B3.json': 'f210086aff40873fe41a7b29a5e870349bfb0bbd90f5c19472b88d3ffbeff833',
        'extracted-B3.json': 'f4e582354a729482d8e14cfa2ae0b0f850a6efc31926fdde60626e244741bb43',
    },
    'B4': {
        'extract-report-B4.json': 'dae36451d6042648919698fe25258330addda065de7f62b8c83d51ca501560f8',
        'extracted-B4.json': 'cbcf3cb59d67837b13ce5b2e439c082ff070b1ad9a70d8dd0e12d2bcdebc69dc',
    },
    'B5': {
        'extract-report-B5.json': '1b993fef862783bdafbd24a594136ac1939450fb196d7a93a813639a8b85cc79',
        'extracted-B5.json': 'b8794b30ff56d723cb1a0a60c48e348ee015220196d5b36fe7da5f48671c7def',
    },
    'B6': {
        'extract-report-B6.json': '64ab48091d7a487f230a8ac21e600c7727e834e75091889ff908580c64b87b08',
        'extracted-B6.json': '850b0e8b79333020f9d528f876b3050edabdbe11cd46d52642e8ab4e7d2ab899',
    },
    'B7': {
        'extract-report-B7.json': '3ab063e6e738a1a95714b33ae05ee93cf1cc90f6be05b105baa6487f9d799c40',
        'extracted-B7.json': 'dc6b1adcd116429ab9a967a692d445bd0c99b2178d3d63837bdafdcfc06bf4fe',
    },
    'B8': {
        'extract-report-B8.json': '00a2dd491c80ce8b295493493f2159187184c4e84a90093ac347656b945c4312',
        'extracted-B8.json': '758e9fbed7447ae14cb186eefbf5488cb0c1a8b5f936aa41a8ae390038e41b07',
    },
    'D4': {
        'extract-report-D4.json': '1efd526ccc47e2b2208d378a4fba8fa32fcdb8501f7e00586fd44038890b90f6',
        'extracted-D4.json': 'ed83807c7a69e4f8252881250131571b2ef09485885444af3003f40f9ceca43d',
    },
    'D5': {
        'extract-report-D5.json': '04a60f3e285de44bff390cd33a8f7d5c3b1aa2513b91f8012407f06baaee84de',
        'extracted-D5.json': 'd960803ba809d7e1ae84eeae5a236195393ef43c37f3f1129f6db07e6e06af97',
    },
    'D6': {
        'extract-report-D6.json': '16d40a87add0239ee7a1c56c473cc205c010d8856f972005b0b159291dcdcc4b',
        'extracted-D6.json': '64525e7e28d0829bcc9198a3488547874f5791f9e5f632c11a3d8d2eb6340824',
    },
    'D7': {
        'extract-report-D7.json': 'b956eb385880f150ac432a67c71503fd81318045467f7084ede348a689ca61b2',
        'extracted-D7.json': 'abb2c96ec20a0691eb5f1fbc6ee12e615d05fbb9332035a47b6870ff2576acca',
    },
    'D8': {
        'extract-report-D8.json': '2ca7c1d09451903a12ebcf674e9c8b79fe1f05b1468dbca95e37206b42f34558',
        'extracted-D8.json': '2ca0574dd530a8b5a368ab330a7b57de7f71c280381fead74272f5e21ba1888f',
    },
    'E6': {
        'extract-report-E6.json': 'c9df45e5b51c8476372f5f8ba8434f342fac71f4cbc9193fd9d1f14ae4e74ed8',
        'extracted-E6.json': '233673491b7bb98c543945fe5a151be7074fc951b3130479045cd44e9e39604c',
    },
    'E7': {
        'extract-report-E7.json': 'c219daae11fd09f356d0486f4b99185fb0fe85f676427a3a8933a8a14f136950',
        'extracted-E7.json': '27c8fbd5acdf7010d34ca118a6c365cd495f287b6745ac2535fa4bcc6a3ad1fa',
    },
    'E8': {
        'extract-report-E8.json': 'b27d30596f5c52a0a7d5d04aff77ab2656d65c44a9cc48aa02e5cfffc9f01d45',
        'extracted-E8.json': 'b406715fd6c40372a6bb397536b59edd42d1cdae8b4d864217825c603f9655e0',
    },
    'F4': {
        'extract-report-F4.json': 'cee6134081fb8312978caba5f4bb0479ab551f0cec4e506d834eebc6af1972ce',
        'extracted-F4.json': 'a0ca95e11f172d747fdb9c7a63beb2c4174b01beecf1b143dd96a7ad7bf33d29',
    },
    'G2': {
        'extract-report-G2.json': 'dc355d021db37dfbb0b1e137679026ba24852e259884d5310a6cbea59a08218b',
        'extracted-G2.json': 'cc867b0d6d9bb2c9a1b17ff323c851a9cc01b802cf1a7b46adeb8c331af9c285',
    },
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_digest(name: str, seed: int, tmp_path) -> str:
    src = tmp_path / f"{name}.json"
    src.write_text(dumps_tensor(catalog_get(name).tensor()) + "\n")
    out = tmp_path / "out"
    code = main([
        "verify", str(src), "--which", "all", "--seed", str(seed),
        "--samples", str(_samples(name)), "--budget", str(BUDGET),
        "--out", str(out),
    ])
    assert code == 0, (name, seed)
    (report,) = out.glob("verify-*.json")
    return _digest(report)


EXTRACT_TYPES = ("G2", "F4", "E6", "E7", "E8") + tuple(f"B{n}" for n in range(3, 9)) + tuple(
    f"D{n}" for n in range(4, 9)
)


def extract_exit_code(lie_type: str) -> int:
    """Only the E8 cubic is the j3o norm; every other comparison fails."""
    return 0 if lie_type == "E8" else 1


def extract_digests(lie_type: str, tmp_path) -> dict:
    out = tmp_path / "out"
    code = main(["extract", "--type", lie_type, "--embedding", "--compare", "j3o-norm",
                 "--out", str(out)])
    assert code == extract_exit_code(lie_type), lie_type
    return {f.name: _digest(f) for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name, seed", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(name, seed, tmp_path, capsys):
    assert verify_digest(name, seed, tmp_path) == VERIFY_DIGESTS[name, seed]


@pytest.mark.parametrize("lie_type", sorted(EXTRACT_DIGESTS))
def test_extract_files_digest(lie_type, tmp_path, capsys):
    assert extract_digests(lie_type, tmp_path) == EXTRACT_DIGESTS[lie_type]


def test_every_catalog_cubic_is_pinned():
    names = {e.name for e in catalog_list()}
    assert set(VERIFY_DIGESTS) == {(n, s) for n in names for s in SEEDS}
    assert set(EXTRACT_DIGESTS) == set(EXTRACT_TYPES)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    def fresh():
        return Path(tempfile.mkdtemp())

    with contextlib.redirect_stdout(io.StringIO()):
        verify = {(e.name, s): verify_digest(e.name, s, fresh())
                  for e in catalog_list() for s in SEEDS}
        extract = {t: extract_digests(t, fresh()) for t in EXTRACT_TYPES}
    print("VERIFY_DIGESTS = {")
    for key in sorted(verify):
        print(f"    {key!r}: {verify[key]!r},")
    print("}\n\nEXTRACT_DIGESTS = {")
    for key in sorted(extract):
        print(f"    {key!r}: {{")
        for fname, d in extract[key].items():
            print(f"        {fname!r}: {d!r},")
        print("    },")
    print("}")
