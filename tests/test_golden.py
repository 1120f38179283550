"""Golden bytes: every command line in the README's "Command line" section,
run on the shipped instances, prints exactly the report recorded here.

The digests are sha256 of stdout; a change to any success report, or to
the obstruction report of the one failing example, shows up as a
mismatch. The growth line's --out is redirected into a temporary
directory; its stdout does not depend on the path.
"""

import contextlib
import hashlib
import io
import os
import re
import shlex

import pytest

from tessella.cli import main

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

GOLDEN = {
    "tessella covol instances/heis_integer.json":
        (0, "62bb3f4373ef1ae2818411f5ba496b529ef6351251e9c462180628ee80c0c409"),
    "tessella common-fd instances/pair_square_rectangle.json":
        (0, "8faa1a18fd1b1288ff23a9201907a3d5c4114854eca5457ee14559f90a5d4a4a"),
    "tessella verify instances/square_tiling.json":
        (0, "b4b05c17e39c99cb92a3041ca5306e0f69dfb7829b520f0f7078852422b3e027"),
    "tessella check instances/obstruction_two_components.json":
        (3, "d07c246cfa145dec0728bfdfb10053714503d877361d440ec3ca179ea404980e"),
    "tessella growth 20 --out growth.json --csv --svg":
        (0, "7eacba71887043ea2713ea5baa601c1fb4a10a0160a8e1451d948641b539af16"),
    "tessella boundary instances/boundary_cubes.json":
        (0, "3e18955781a08b0a9db474074f95f1dc84e63875f741aabaca8bec9c73d02395"),
    "tessella finite check instances/z6_one_plus_half.json":
        (0, "4a52c6f4e33031e1d94ce241c2d93c9c4d38c75fe7d0cb5c0151ed20d78525fb"),
    "tessella finite construct instances/z6_one_plus_half.json":
        (0, "ccccc58bb57966d14f33ebacc959544ed44b5bf016af8a0a8847d0df88555da1"),
    "tessella finite oracle instances/z6_one_plus_half.json":
        (0, "75591d6f27fe669841b1a222f82b7e60c0eea98b3b973a715da48924eb9dd5bc"),
    "tessella heis mul instances/heis_integer.json":
        (0, "6deb3fa32cd03c949bdf5580bcf6f9870804a49d4c98d0e3d7095f194a7cb150"),
    "tessella heis exp instances/heis_integer.json":
        (0, "c940fc9248080b065b6c802dfb7c426f0802ec852b5f574810a00e8849c02ff4"),
    "tessella heis reduce instances/heis_reduce.json":
        (0, "6d37ffed43fb95dfd8696273ffb61221915757425314867180e89429efe94b64"),
    "tessella heis covol instances/heis_integer.json":
        (0, "8408962bc48451046c61c4a5b5ed87760e541af915415d64285ee14c950f538e"),
    "tessella heis mc-verify instances/heis_psi_cell.json --samples 2000 --seed 0":
        (0, "b7fd964096ab5ca2225f4a25972a1af64ff7831ca34f297ac370081eef1e2c93"),
}


def readme_command_lines() -> list[str]:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("tessella ")]


def test_readme_lines_are_the_golden_set():
    assert readme_command_lines() == list(GOLDEN)


@pytest.mark.parametrize("line", list(GOLDEN))
def test_readme_command_prints_golden_bytes(line, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    argv = shlex.split(line)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[line]
