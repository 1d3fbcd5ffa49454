"""Golden corpus: canonical hashes of the CLI reports over the catalog.

Every catalog entry gets ``group describe --p`` at its prime,
``fusion of-group``, ``analyze`` and ``factorize``; every multi-factor
entry except ``inner-c3c3c3`` (whose exhaustive search takes seconds)
also gets ``factorize --exhaustive`` and a ``krs`` certificate between
its first and last factorization.  The 2-groups and Sym4 x C2 in
GOLDSCHMIDT also get ``goldschmidt``.
A refactor must keep every hash unchanged; a changed hash needs a
CHANGES.md entry that states the change in behaviour.

Regenerate ``golden_reports.json`` with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib
import tempfile

from fusionsys import catalog, cli

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
NO_EXHAUSTIVE = {"inner-c3c3c3"}
GOLDSCHMIDT = ("inner-c2c2", "inner-d8-c2", "sym4-c2")


def report_hashes(workdir: pathlib.Path) -> dict[str, str]:
    """Run the corpus commands; returns ``{"<entry>/<command>": hash}``."""
    hashes = {}

    def run(key: str, argv: list[str]) -> dict:
        code, report = cli.run(argv)
        assert code == 0, (key, report.get("error"))
        hashes[key] = report["hash"]
        return report["results"]

    for name in catalog.names():
        src = ["--catalog", name]
        prime = str(catalog.entry(name).prime)
        run(f"{name}/group-describe", ["group", "describe", *src, "--p", prime])
        if name in GOLDSCHMIDT:
            run(f"{name}/goldschmidt", ["goldschmidt", *src])
        run(f"{name}/fusion-of-group", ["fusion", "of-group", *src])
        run(f"{name}/analyze", ["analyze", *src])
        if run(f"{name}/factorize", ["factorize", *src])["parts"] == 1:
            continue
        if name in NO_EXHAUSTIVE:
            continue
        facts = run(
            f"{name}/factorize-exhaustive", ["factorize", *src, "--exhaustive"]
        )["factorizations"]
        paths = []
        for k, fact in enumerate((facts[0], facts[-1])):
            path = workdir / f"{name}.fact{k}.json"
            path.write_text(json.dumps({"parts": [q["base"] for q in fact["parts"]]}))
            paths.append(str(path))
        run(f"{name}/krs", ["krs", *src, "--fact1", paths[0], "--fact2", paths[1]])
    return hashes


def test_golden_report_hashes(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report_hashes(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes = report_hashes(pathlib.Path(tmp))
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
