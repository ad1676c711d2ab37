"""API request coalescing: concurrent clients, one batched detection pass.

A serving fleet's clients ask about one signal at a time — ``POST
/detect`` with a single row array each. Handling every request with its
own pipeline pass wastes the batch data plane, so the API coalesces:
a request with no compatible execution in flight (same pipeline,
hyperparameters, exact flag and training rows) runs at once, and the
compatible requests that arrive while it runs queue up and execute
together as **one** ``detect_batch`` pass right after it. Nothing waits
on a timer. Each client still receives only its own signal's anomalies;
the server just did the queued requests' work in one pipeline execution.

Run with:  python examples/coalesced_api.py
"""

import threading
import time

from repro.api import SintelAPI
from repro.data import generate_signal


def main():
    # 1. A fleet of similar telemetry signals, one per client request.
    fleet = [
        generate_signal(
            f"client-{i:02d}", length=400, n_anomalies=2, random_state=i,
            flavour="periodic",
        ).to_array()
        for i in range(8)
    ]
    train = fleet[0].tolist()

    # 2. An API that serves up to 8 queued compatible requests per pass.
    api = SintelAPI(coalesce_max_batch=8)

    responses = [None] * len(fleet)

    def client(index):
        responses[index] = api.post("/detect", {
            "pipeline": "azure",
            "data": fleet[index].tolist(),
            "train": train,
        })

    # 3. Eight clients fire concurrently...
    started = time.perf_counter()
    threads = [threading.Thread(target=client, args=(index,))
               for index in range(len(fleet))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    # 4. ...and the first to arrive ran at once, while the ones that came
    #    in during its pass were served together by the next. How many
    #    arrived in time depends on thread timing, so only report it.
    stats = api.coalescer.stats()
    print(f"{stats['requests']} requests served by "
          f"{stats['executions']} underlying detect_batch pass(es) "
          f"in {elapsed * 1000:.0f} ms")
    for index, response in enumerate(responses[:4]):
        spans = ", ".join(f"[{int(s)}..{int(e)}]"
                          for s, e, _ in response.body["anomalies"])
        print(f"  client-{index:02d} (batch of "
              f"{response.body['batch_size']}): {spans or 'clean'}")

    api.close()


if __name__ == "__main__":
    main()
