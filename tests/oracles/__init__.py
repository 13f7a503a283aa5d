"""Reference implementations the tests check the library against.

Nothing in ``src/repro`` imports these: each is a slower or plainer
statement of something the library computes another way, kept only so
a test can compare the two.  ``tests/conftest.py`` puts ``tests/`` on
``sys.path``, so every test imports them as ``oracles.<module>``.

* :mod:`oracles.simplex` — a dense two-phase simplex that cross-checks
  the HiGHS entry point and the closed-form P4/P5 solvers;
* :mod:`oracles.block_lp` — ``B`` offline LPs solved as one literal
  block-diagonal program, a cross-check of ``CompiledLp``'s stamping;
* :mod:`oracles.selection` — the plain-Python candidate loop that
  ``scan_candidates`` vectorizes, and P4's window cost at one rate;
* :mod:`oracles.engine` — per-slot series out of the batch engine
  (:class:`~oracles.engine.BatchRecorder`), the whole-horizon delay
  replay, and a scalar result's metrics through the batch fold;
* :mod:`oracles.results` — a scalar result's headline summary as
  NumPy reductions over its series, the independent check on the
  batch fold;
* :mod:`oracles.drift` — Theorem 1's per-slot drift bound, recorded
  around a SmartDPSS run;
* :mod:`oracles.theory` — Theorem 2's claims checked on a finished run;
* :mod:`oracles.trace_validation` — the statistical features the
  synthetic traces must keep;
* :mod:`oracles.stream_traces` — the ``stream`` trace family one slot
  at a time: the per-slot references of the trace kernels and one
  scenario's reference cursor, which ``BatchTraceStream`` windows and
  ``StreamingPaperTraces.materialize()`` must match bit for bit.
"""
