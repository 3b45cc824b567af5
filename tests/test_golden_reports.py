"""Golden SHA-256 digests of the CLI's reports.

A refactor or a speed-up must leave every report byte-identical for a
fixed configuration.  These digests pin the ``verify --which all``
report of every catalog cubic at three seeds and the ``extract
--embedding --compare j3o-norm`` files of G2 and F4.  A documented
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


def extract_digests(lie_type: str, tmp_path) -> dict:
    out = tmp_path / "out"
    code = main(["extract", "--type", lie_type, "--embedding", "--compare", "j3o-norm",
                 "--out", str(out)])
    # The G2 and F4 cubics are not the j3o norm: the comparison fails.
    assert code == 1, lie_type
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
    assert set(EXTRACT_DIGESTS) == {"G2", "F4"}


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
        extract = {t: extract_digests(t, fresh()) for t in ("G2", "F4")}
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
