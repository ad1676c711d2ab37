"""Production gateway tour: tenants, rate limits, shedding, /metrics.

Wraps the REST API in the production ``Gateway`` and walks the whole
middleware chain: provision two tenants, watch the versioned ``/v1``
surface and the deprecation shim, exhaust one tenant's token bucket
while the other sails through, run a detection, and finish with a
Prometheus ``/metrics`` scrape showing the stack's internals — request
counters by tenant and status, latency percentiles, plan step
timings, cache and coalescer stats.

Run with:  python examples/api_gateway.py
"""

from repro.api import Gateway, parse_prometheus
from repro.data import generate_signal


def main():
    # 1. A gateway around the REST API. Every request now passes through
    #    request-id stamping, auth, rate limiting and admission control.
    gateway = Gateway(max_concurrent=4, max_queue=8)

    # 2. Provision tenants. The cleartext key is returned exactly once;
    #    only its SHA-256 hash is kept.
    _, ops_key = gateway.tenants.create("ops", rate=1000.0)
    _, trial_key = gateway.tenants.create("trial", rate=5.0, burst=3)

    # 3. No key -> the unified error envelope, with the request id that
    #    also appears in the X-Request-ID header and the structured log.
    denied = gateway.get("/v1/pipelines")
    print(f"no key      -> {denied.status} "
          f"{denied.body['error']['code']} "
          f"(request {denied.headers['X-Request-ID']})")

    # 4. The versioned surface. Legacy unversioned paths still answer,
    #    but carry a Deprecation header and a counter.
    ok = gateway.get("/v1/pipelines", headers={"X-API-Key": ops_key})
    legacy = gateway.get("/pipelines", headers={"X-API-Key": ops_key})
    print(f"/v1 route   -> {ok.status} ({len(ok.body['pipelines'])} "
          f"pipelines)")
    print(f"legacy path -> {legacy.status} "
          f"Deprecation={legacy.headers.get('Deprecation')}")

    # 5. The trial tenant's bucket holds 3 tokens; the fourth request in
    #    the burst is rate-limited with Retry-After. Ops is untouched.
    for _ in range(3):
        gateway.get("/v1/pipelines", headers={"X-API-Key": trial_key})
    limited = gateway.get("/v1/pipelines", headers={"X-API-Key": trial_key})
    print(f"trial burst -> {limited.status} "
          f"{limited.body['error']['code']} "
          f"Retry-After={limited.headers['Retry-After']}s")
    print(f"ops still   -> "
          f"{gateway.get('/v1/pipelines', headers={'X-API-Key': ops_key}).status}")

    # 6. Real work feeds the plan timing sink behind /metrics.
    signal = generate_signal("gw-demo", length=300, n_anomalies=2,
                             random_state=7)
    detection = gateway.post("/v1/detect", {
        "pipeline": "azure", "data": signal.to_array().tolist(),
    }, headers={"X-API-Key": ops_key})
    print(f"detect      -> {detection.status} "
          f"({len(detection.body['anomalies'])} anomalies)")

    # 7. One public scrape exposes the whole stack.
    samples = parse_prometheus(gateway.get("/metrics").body)
    requests_by = {labels: value for (name, labels), value in samples.items()
                   if name == "sintel_requests_total"}
    print(f"\n/metrics: {len(samples)} samples, "
          f"{len(requests_by)} request series")
    for labels, value in sorted(requests_by.items()):
        rendered = ", ".join("=".join(pair) for pair in labels)
        print(f"  sintel_requests_total{{{rendered}}} = {value:g}")
    steps = [(labels[0][1], value) for (name, labels), value in samples.items()
             if name == "sintel_executor_step_seconds_total"]
    for step, seconds in sorted(steps, key=lambda kv: -kv[1])[:3]:
        print(f"  slowest step {step}: {seconds * 1000:.1f} ms")

    # 8. The structured request log has one JSON record per request.
    record = gateway.log_records[-1]
    print(f"\nlast log record: tenant={record['tenant']} "
          f"route={record['route']} status={record['status']} "
          f"latency={record['latency_ms']:.1f}ms")

    gateway.close()


if __name__ == "__main__":
    main()
