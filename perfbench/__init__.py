"""Served-path benchmark for the provenance service.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` drives a :class:`repro.service.http.ProvenanceHTTPServer`
over HTTP with one seeded closed-loop workload, checks every answer and
prints one JSON result line.  See ``perfbench/README.md``.
"""
