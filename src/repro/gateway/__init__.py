"""Fault-tolerant HTTP transport for the experiment service.

``repro.gateway`` is the wire layer over
:class:`repro.service.ExperimentService`: a stdlib-only asyncio
HTTP/1.1 server engineered for failure first (:mod:`.server`) and a
retrying client built to survive the failures the server hands out
(:mod:`.client`).  ``python -m repro serve --http HOST:PORT`` boots
the server; ``tools/gateway_smoke.py`` is the chaos gate that keeps
both honest.
"""
