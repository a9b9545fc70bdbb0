import pathlib
import subprocess
import sys

TESTS = pathlib.Path(__file__).resolve().parent


def test_failing_property_reports_its_example(tmp_path):
    # the suite's conftest and warning filters around one failing property:
    # pytest must report the falsifying example, not end in INTERNALERROR
    (tmp_path / "conftest.py").write_text((TESTS / "conftest.py").read_text())
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n\n"
        "@settings(max_examples=20)\n@given(x=st.integers())\n"
        "def test_fails(x):\n    assert x < 5\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", "/dev/null",
         "--rootdir", str(tmp_path), "-W", "error::DeprecationWarning",
         "-W", "error::PendingDeprecationWarning", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails(" in out
