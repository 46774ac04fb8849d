"""Test-only reference implementations.

A reference that the program never runs, and that exists only so a
fast path can be compared against it, lives here rather than in
``src/``:

* :mod:`.pipeline` — ``RecordPipeline``, MHA planning over record
  traces (reference of ``MHAPipeline.plan_file_columnar``);
* :mod:`.reorganizer` — ``reorganize``, the record-path Data
  Reorganizer;
* :mod:`.features` — ``extract_features`` (reference of
  ``extract_features_columnar``);
* :mod:`.analysis` — ``burst_ids_of`` (reference of
  ``burst_ids_columnar``);
* :mod:`.aal` — AAL's scalar stripe search.

A ``@twin_of`` contract names these as
``tests.oracles.<module>:<qualname>``; ``python -m tools.repro_lint``
resolves such specs from disk when ``tests/`` is not linted, and the
generated suites under ``tests/contracts/`` import them from here.
"""
