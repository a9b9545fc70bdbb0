"""Run a fixed set of 41 CLI commands and write a manifest of their outputs.

    python3 scripts/cli_manifest.py --work DIR --out MANIFEST.json [--checkout DIR]

The commands cover every task, solver and loss, positive-unlabeled fits,
fits that must fail (exit 1) and inputs that must be refused (exit 2):
CRLF line ends, a tab where the label field ends, a file of two text lines
and a missing file. They run twice in DIR, which must not exist: a cold
pass, then a warm pass that reads the dataset sidecars the cold pass left.
Each runs as ``python3 -m nondecomp`` with the package imported from the
checkout's ``src/`` and the configs copied from its ``configs/`` (default:
the checkout this script is in), BLAS at one thread and
NONDECOMP_THREADS = 1, except where a command lists 2.

The manifest holds, per pass, each command's exit status and the SHA-256
of its stdout and stderr, and the SHA-256 of every output file under DIR
after the pass. The dataset sidecars (``*.parsed``) are kept apart: their
SHA-256 in a map of their own, and the list of those the pass wrote. So a
change of the sidecar layout shows in that map alone, and a warm pass,
which parses no dataset, lists none written. The paths of ``src/`` and of the work directory
are written as <src> and <work> in the captured streams before hashing, so
two checkouts run from two directories compare by one diff of their
manifests:

    python3 scripts/cli_manifest.py --checkout a --work runs/a --out a.json
    python3 scripts/cli_manifest.py --checkout b --work runs/b --out b.json
    diff a.json b.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SYNTH = "configs/synth_small.cfg"
ON_DATA = f"{SYNTH} --data_path=o/synth/dataset.txt --test_path=o/synth3/dataset.txt"

# (command, NONDECOMP_THREADS), in the order they run
COMMANDS = [
    (f"synth {SYNTH} --out_dir=o/synth", 1),
    (f"synth {SYNTH} --seed=3 --out_dir=o/synth3", 1),
    *((f"{task} {ON_DATA} --solver={solver} --out_dir=o/{solver}", 1)
      for solver in ("alt_min", "prox_grad", "plugin") for task in ("fit", "threshold", "eval")),
    (f"fit {SYNTH} --pu_rho=0.3 --lambda_reg=0.05 --out_dir=o/pu_alt", 1),
    (f"fit {SYNTH} --pu_rho=0.3 --lambda_reg=0.05 --solver=prox_grad --out_dir=o/pu_prox", 1),
    (f"fit {SYNTH} --pu_rho=0.3 --out_dir=o/pu_runaway", 1),
    (f"compare {ON_DATA} --out_dir=o/compare --methods=algorithm1,plugin", 1),
    (f"compare {ON_DATA} --out_dir=o/compare_pu --methods=algorithm1,plugin --pu_rho=0.3 "
     "--lambda_reg=0.05", 1),
    (f"compare {ON_DATA} --out_dir=o/compare_pu_runaway --methods=algorithm1,plugin "
     "--pu_rho=0.3", 1),
    ("convergence configs/convergence.cfg --repeats=2 --out_dir=o/conv1", 1),
    ("convergence configs/convergence.cfg --repeats=2 --out_dir=o/conv2", 2),
    ("convergence configs/convergence.cfg --pu_rho=0.3 --n=200 --L=20 --d=6 --rank=2 --k=2 "
     "--ratios=0.3 --repeats=1 --out_dir=o/conv_pu", 1),
    ("rate_check configs/rate_check.cfg --out_dir=o/rate1", 1),
    ("rate_check configs/rate_check.cfg --out_dir=o/rate2", 2),
    (f"fit {SYNTH} --solver=prox_grad --regularizer_mode=score_norm --out_dir=o/score", 1),
    (f"fit {SYNTH} --loss=squared --out_dir=o/alt_squared", 1),
    (f"fit {SYNTH} --loss=squared --solver=prox_grad --out_dir=o/prox_squared", 1),
    (f"fit {SYNTH} --loss=exponential --out_dir=o/alt_exponential", 1),
    (f"fit {SYNTH} --loss=exponential --solver=prox_grad --out_dir=o/prox_exponential", 1),
    (f"fit {SYNTH} --loss=gaussian --noise_model=gaussian --out_dir=o/alt_gauss", 1),
    (f"fit {SYNTH} --loss=gaussian --noise_model=gaussian --solver=prox_grad "
     "--out_dir=o/prox_gauss", 1),
    (f"fit {SYNTH} --data_path=crlf.txt --out_dir=o/crlf", 1),
    (f"fit {SYNTH} --data_path=tab.txt --solver=plugin --out_dir=o/tab", 1),
    (f"fit {SYNTH} --data_path=bad.txt --out_dir=o/bad", 1),
    (f"fit {SYNTH} --data_path=missing.txt --out_dir=o/missing", 1),
    (f"fit {SYNTH} --out_dir=o/alt_synth", 1),
    (f"fit {SYNTH} --solver=plugin --out_dir=o/plugin_synth", 1),
    (f"fit {SYNTH} --lambda_reg=1e150 --out_dir=o/alt_1e150", 1),
    (f"fit {SYNTH} --lambda_reg=1e100 --out_dir=o/alt_1e100", 1),
    (f"fit {SYNTH} --lambda_reg=1e150 --solver=prox_grad --out_dir=o/prox_1e150", 1),
    ("rate_check configs/rate_check.cfg --n=10 --out_dir=o/rate_n10", 1),
    (f"fit {SYNTH} --n=4 --solver=prox_grad --regularizer_mode=score_norm "
     "--out_dir=o/score_n4", 1),
    (f"fit {SYNTH} --n=6 --solver=prox_grad --regularizer_mode=score_norm "
     "--out_dir=o/score_n6", 1),
]

SIDECAR_SUFFIX = ".parsed"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def write_odd_inputs(work):
    """The inputs derived from the first synth dataset: it with CRLF line
    ends, it with a tab after each line's first field, and two text lines."""
    with open(os.path.join(work, "o", "synth", "dataset.txt"), "rb") as fh:
        lines = fh.read().split(b"\n")[:-1]
    inputs = {
        "crlf.txt": b"".join(line + b"\r\n" for line in lines),
        "tab.txt": b"".join(line.replace(b" ", b"\t", 1) + b"\n" for line in lines),
        "bad.txt": b"not a dataset\nsecond line\n",
    }
    for name, data in inputs.items():
        with open(os.path.join(work, name), "wb") as fh:
            fh.write(data)


def run_pass(work, src, env):
    """Each command's exit status and stream digests, in order."""
    records = []
    for i, (command, threads) in enumerate(COMMANDS):
        result = subprocess.run(
            [sys.executable, "-m", "nondecomp", *shlex.split(command)], cwd=work,
            env={**env, "NONDECOMP_THREADS": str(threads)}, capture_output=True, check=False)
        streams = {}
        for name, data in (("stdout", result.stdout), ("stderr", result.stderr)):
            data = data.replace(src.encode(), b"<src>").replace(work.encode(), b"<work>")
            streams[f"{name}_sha256"] = sha256(data)
        records.append({"command": command, "threads": threads, "exit": result.returncode,
                        **streams})
        if i == 0 and not os.path.exists(os.path.join(work, "crlf.txt")):
            write_odd_inputs(work)
    return records


def file_digests(work):
    """SHA-256 of every file under ``work`` but the configs, by relative
    path: the outputs, and the sidecars with each one's file identity."""
    outputs, sidecars, identities = {}, {}, {}
    for top, dirs, files in os.walk(work):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            rel = os.path.relpath(path, work)
            if rel.split(os.sep)[0] == "configs":
                continue
            with open(path, "rb") as fh:
                digest = sha256(fh.read())
            if name.endswith(SIDECAR_SUFFIX):
                sidecars[rel] = digest
                # a sidecar is replaced through a new file, so a rewrite changes these
                st = os.stat(path)
                identities[rel] = (st.st_ino, st.st_mtime_ns)
            else:
                outputs[rel] = digest
    return outputs, sidecars, identities


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True, help="directory to run in; must not exist")
    parser.add_argument("--out", required=True, help="manifest JSON to write")
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout whose src/ and configs/ are run")
    args = parser.parse_args(argv)
    work, checkout = os.path.abspath(args.work), os.path.abspath(args.checkout)
    src = os.path.join(checkout, "src")
    os.makedirs(work)
    shutil.copytree(os.path.join(checkout, "configs"), os.path.join(work, "configs"))
    env = {**os.environ, "PYTHONPATH": src, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    env.pop("PYTHONWARNINGS", None)  # warnings print as they do by default
    manifest, before = {}, {}
    for name in ("cold", "warm"):
        commands = run_pass(work, src, env)
        outputs, sidecars, identities = file_digests(work)
        manifest[name] = {
            "commands": commands, "files": outputs, "sidecars": sidecars,
            "sidecars_written": sorted(rel for rel, ident in identities.items()
                                       if before.get(rel) != ident),
        }
        before = identities
    with open(args.out, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    exits = [r["exit"] for r in manifest["cold"]["commands"]]
    print(f"{len(COMMANDS)} commands, 2 passes; cold exits {exits}; wrote {args.out}")


if __name__ == "__main__":
    main()
