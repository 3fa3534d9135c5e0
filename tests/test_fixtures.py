"""The bundled data files are exactly what `tools/gen_fixtures.py` writes."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "spotsim" / "data"


def test_gen_fixtures_reproduces_bundled_data(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_fixtures", ROOT / "tools" / "gen_fixtures.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "DATA", tmp_path)
    gen.main()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in DATA.iterdir() if p.suffix in (".json", ".jsonl"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name
