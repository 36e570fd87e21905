"""Interference analysis: store-backed report rows and their rendering.

Everything lives in :mod:`repro.analysis.reports` and is re-exported here:
the row builders that rebuild the paper's tables from a populated
:class:`~repro.results.ResultStore` without simulating — Table I/II, the
pairwise study of Section V (:func:`comparison_rows`, Fig. 4), the
mixed-workload study of Section VI (:func:`mixed_rows_from_store`,
Fig. 10), synthetic backgrounds and steady-state load curves — the
plain-text, CSV and Markdown renderers, and :func:`build_report` behind
``dragonfly-sim report`` (see docs/results.md).
"""

from repro.analysis.reports import *  # noqa: F403 - the package's API is the module's
from repro.analysis.reports import __all__
