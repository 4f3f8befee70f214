#!/usr/bin/env bash
# The smoke checks every CI stack runs: in the current directory, `sosbeam all`
# on a 64 x 24 grid writes identical files at 1 and 2 threads and with the
# BLAS pinned to one thread (OPENBLAS_NUM_THREADS=1), and `beamform` on its
# cube agrees with it; then the same in dec8/ and dec10/ at decimations 8 and
# 10, the latter a carrier step beyond pi (interp.sample_rows' turns branch).
# Prints the OpenBLAS thread count that `cli.main` leaves, failing if it pins
# nothing where the symbol exists.
# Leaves config.json, threads1/ and bf_* of the default config behind for a
# caller's further checks. Usage: cd "$(mktemp -d)" && bash smoke.sh
set -euo pipefail

smoke() {  # $1: chain.decimation
  sosbeam init-config --out config.json
  # 64 x 24 pixels are three 512-pixel row blocks, so two threads image them as several tasks
  python -c "import json, sys; d = json.load(open('config.json')); d['grid'].update(n_x=64, n_y=24); d['chain']['decimation'] = int(sys.argv[1]); json.dump(d, open('config.json', 'w'))" "$1"
  sosbeam all --config config.json --out-dir threads1 --threads 1
  # what this stack's BLAS does: cli.main pins numpy's bundled OpenBLAS to one
  # thread where it exports the symbol (prints None where it does not)
  python -c "from sosbeam import cli; cli.main(['init-config', '--out', 'pin.json']); get = getattr(cli._bundled_openblas(), 'scipy_openblas_get_num_threads64_', None); n = get and get(); print('OpenBLAS threads after cli.main:', n); assert n in (None, 1), n"
  sosbeam all --config config.json --out-dir threads2 --threads 2
  diff -r threads1 threads2
  # nor do the BLAS's own threads move a bit
  OPENBLAS_NUM_THREADS=1 sosbeam all --config config.json --out-dir blas1 --threads 2
  diff -r threads2 blas1
  # beamform on the written float32 cube gives the same PGMs and flags as all
  for m in das mvdr bayes; do
    sosbeam beamform --config config.json --data threads1/raw_cube.bin --method $m --threads 2 --out bf_$m
    cmp bf_$m.pgm threads1/$m.pgm
    cmp bf_${m}_flags.json threads1/${m}_flags.json
  done
  # Bayes with one node puts it at the prior's centre c, where it is MVDR at c
  sosbeam beamform --config config.json --data threads1/raw_cube.bin --method bayes --n-quad 1 --out bf_q1
  cmp bf_q1.csv bf_mvdr.csv
  cmp bf_q1.pgm bf_mvdr.pgm
  # and dB CSVs at the RMSE floor against all's
  sosbeam metrics --config config.json threads1/{das,mvdr,bayes}.csv bf_{das,mvdr,bayes}.csv --out bf.json
  python -c "import json; r = json.load(open('bf.json'))['rmse_db']; assert [r[k] for k in ('bf_das/das', 'bf_mvdr/mvdr', 'bayes/bf_bayes')] == [-120.0] * 3, r"
}

# the pixels' bits rest on the BLAS rounding each element of the complex Farrow
# filter product the same at any width: check it at two tap degrees, the
# default carrier step (about 1.51 rad per sample, degree 13) and decimation
# 8's (about 3.02, degree 14); decimation 10's (about 3.77, beyond pi) takes
# sample_rows' turns branch, which fits the taps a turn lower and turns each
# value back
(mkdir dec8 && cd dec8 && smoke 8)
(mkdir dec10 && cd dec10 && smoke 10)
smoke 4
