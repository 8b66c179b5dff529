"""The exhaustive corpus: class counts, the exact ids and their order, the
size limit, and that neither it nor a sweep needs numpy."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from trailcounts.corpus import all_connected_up_to, connected_graphs, is_connected

ROOT = Path(__file__).resolve().parent.parent

# Connected graphs on n unlabeled vertices, n = 1..6 (OEIS A001349).
CONNECTED_CLASSES = [1, 1, 2, 6, 21, 112]

# Every representative's edge-slot mask in hex, per n, in corpus order: the
# smallest mask of each class. The ids are "conn-n{n}-{mask}".
REPRESENTATIVE_MASKS = {
    1: "0",
    2: "1",
    3: "3 7",
    4: "7 d f 1e 1f 3f",
    5: "f 1d 1f 3a 3b 3e 3f 7e 7f b9 bb bf cf dc dd df fe ff 1ef 1ff 3ff",
    6: (
        "1f 3d 3f 79 7a 7b 7e 7f f6 f7 fe ff 1fe 1ff 279 27b 27f 293 297 29f 2b3 2b4 "
        "2b5 2b6 2b7 2bc 2bd 2bf 2f6 2f7 2f8 2f9 2fa 2fb 2fe 2ff 39a 39b 39e 39f 3ba "
        "3bb 3bc 3bd 3be 3bf 3fe 3ff 6d5 6d7 6df 6f4 6f5 6f7 6fc 6fd 6ff 758 759 75b "
        "75c 75d 75f 77b 77c 77d 77f 7dc 7dd 7de 7df 7fe 7ff fdc fdd fdf fff 16f1 "
        "16f3 16f7 16ff 1713 1717 171f 1735 1737 173c 173d 173e 173f 1777 177a 177b "
        "177e 177f 17fe 17ff 19fe 19ff 1b9f 1bbc 1bbd 1bbf 1bfe 1bff 1fdd 1fdf 1fff "
        "3dfe 3dff 3fff 7fff"
    ),
}

# sha256 of the newline-joined ids of all_connected_up_to(6), as recorded
# from the numpy canonicalization this corpus replaced.
IDS_SHA256 = "a47280294f7abdd29a26ca1214fc966adb09b3467b80ebfc073994f6f52c4857"


@pytest.mark.parametrize("n, classes", enumerate(CONNECTED_CLASSES, start=1))
def test_connected_class_counts(n, classes):
    graphs = connected_graphs(n)
    assert len(graphs) == classes
    assert all(g.n == n and is_connected(g) for g in graphs)


def test_ids_and_order_are_pinned():
    ids = [gid for gid, _ in all_connected_up_to(6)]
    assert ids == [f"conn-n{n}-{mask}" for n, masks in REPRESENTATIVE_MASKS.items() for mask in masks.split()]
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == IDS_SHA256


@pytest.mark.parametrize(
    "n, message", [(0, "n must be >= 1, got 0"), (7, "exhaustive corpus is limited to n <= 6, got n = 7")]
)
def test_sizes_outside_the_exhaustive_range_are_refused(n, message):
    with pytest.raises(ValueError, match=message):
        connected_graphs(n)


def test_corpus_and_sweep_run_without_numpy():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        "from trailcounts.corpus import all_connected_up_to\n"
        "from trailcounts.cli import main\n"
        "assert len(all_connected_up_to(6)) == 143\n"
        "sys.exit(main(['verify', '--n-max', '4', '--l-max', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
