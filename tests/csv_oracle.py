"""Reference request CSV writer: one `csv.writer.writerow` per record.

`metrics.write_request_csv` formats each line itself; it must write these
bytes for every report.
"""

import csv
from pathlib import Path

from spotsim.metrics import CSV_FIELDS, MetricsReport


def write_request_csv(report: MetricsReport, path: str | Path):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_FIELDS)
        for r in report.records:
            w.writerow([
                r.id, repr(r.arrival), r.s_in, r.s_out,
                "" if r.dispatch is None else repr(r.dispatch),
                "" if r.completion is None else repr(r.completion),
                "" if r.l_sch is None else repr(r.l_sch),
                "" if r.l_exe is None else repr(r.l_exe),
                "" if r.l_req is None else repr(r.l_req),
                r.tokens_generated,
                int(r.done),
            ])
