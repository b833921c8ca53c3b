"""Smoke test of tools/bits.py: its quick set, made by this checkout's src
and by a copy of it, is identical, and a last-bit change planted in the copy
is named. It runs in child processes, because the tool pins the BLAS thread
variables before numpy loads."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# adamw_step's last two subtractions, p - lr g - lr decay p; swapped, they
# round differently in the last bit
STEP = "        p -= np.multiply(state.grad[part], lr, out=state.grad[part])\n"
DECAY = "        p -= state.work[part]\n"
PLANT = (STEP + DECAY, DECAY + STEP)


def bits(*trees):
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "bits.py"), *map(str, trees), "--quick"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1), done.stderr
    return done.returncode, done.stdout.splitlines()


def test_a_copy_matches_and_a_planted_last_bit_change_is_named(tmp_path):
    src, copy = ROOT / "src", tmp_path / "src"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bits(src, copy)
    assert lines[0].startswith("textmass bits (quick): python ") and "OPENBLAS_NUM_THREADS=1" in lines[0]
    # the OpenBLAS kernel as the library names it, or "unknown"
    assert re.search(r", kernel (\w+), cpu ", lines[0])
    assert code == 0 and lines[-1] == "5 of 5 artifacts identical"
    assert any(line.split() == ["identical", "cli.train/checkpoint.tmck"] for line in lines)

    trainer = copy / "textmass" / "trainer.py"
    text = trainer.read_text(encoding="utf-8")
    assert text.count(PLANT[0]) == 1
    trainer.write_text(text.replace(*PLANT), encoding="utf-8")
    code, lines = bits(src, copy)
    assert code == 1 and lines[-1] == "4 of 5 artifacts identical"
    differs = [line for line in lines if line.startswith("DIFFERS")]
    assert len(differs) == 1 and differs[0].startswith("DIFFERS        cli.train/checkpoint.tmck: max |params diff| ")
