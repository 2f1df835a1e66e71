"""A stdlib HTTP sidecar serving ``/metrics`` and ``/healthz``.

The first real-socket surface in the repo: a daemon-thread
``http.server`` that exposes the live observability plane to anything
that can speak HTTP -- a Prometheus scraper, ``curl`` in CI, or the
``campaign run --serve-metrics PORT`` flag watching a fleet shard.

* ``GET /metrics`` renders the registry through the existing
  Prometheus 0.0.4 text exporter (:func:`repro.obs.export
  .prometheus_text`), so whatever a scrape returns always passes
  :func:`~repro.obs.export.validate_prometheus_text`.  The registry is
  snapshotted per request against live concurrent updates -- the
  registry's own locks make that race-safe, and a dedicated test
  hammers it from writer threads while scraping.
* ``GET /healthz`` serves a JSON health payload from an injectable
  ``health`` callable (``campaign run`` wires in the fleet heartbeat
  summary from :mod:`repro.runner.status`).  HTTP 200 while the
  payload says ``healthy``, 503 once it does not -- so a load balancer
  or CI assertion needs no JSON parsing for the basic verdict.

No third-party dependencies, no background work between requests, and
``close()`` is idempotent: this is deliberately the smallest thing the
ROADMAP item 1 live runtime can inherit as its ops surface.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.obs.export import _json_safe, prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:
    from http.server import BaseHTTPRequestHandler

#: The content type Prometheus expects for the 0.0.4 text format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def json_ready(value):
    """Recursive :func:`~repro.obs.export._json_safe`: structures keep
    their shape, leaves get the scalar coercion (non-finite floats to
    strings, unknown objects to ``repr``)."""
    if isinstance(value, dict):
        return {str(key): json_ready(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ready(item) for item in value]
    return _json_safe(value)

RegistrySource = Union[MetricsRegistry, Callable[[], Optional[MetricsRegistry]]]

#: Anything :func:`resolve_health_provider` understands.
HealthSource = Union[dict, Callable[[], dict], object, None]


def _default_health() -> dict:
    return {"status": "ok", "healthy": True}


def resolve_health_provider(health: HealthSource) -> Callable[[], dict]:
    """Normalize any health source into the zero-arg callable the
    ``/healthz`` handler consumes.

    Accepted shapes: ``None`` (always-healthy default), a static
    ``dict`` payload, a zero-arg callable returning the payload, or any
    object with a ``health_json()`` method (e.g. the live
    :class:`~repro.live.server.CorrectionServer` or the fleet
    :class:`~repro.runner.status.FleetStatus`) -- so surfaces can hand
    themselves to :func:`serve_telemetry` directly instead of this
    module hard-wiring any one provider's internals.
    """
    if health is None:
        return _default_health
    if isinstance(health, dict):
        payload = dict(health)
        return lambda: payload
    if callable(health):
        return health
    health_json = getattr(health, "health_json", None)
    if callable(health_json):
        return health_json
    raise TypeError(
        f"health source {health!r} is none of: None, dict, callable, "
        f"object with health_json()"
    )


class TelemetryServer:
    """Background-thread HTTP server for one registry + health source.

    ``registry`` may be a :class:`~repro.obs.metrics.MetricsRegistry`
    or a zero-arg callable resolved per request (for surfaces whose
    registry is swapped out over time).  ``None`` captures the ambient
    recorder's registry at construction -- capture, not per-request
    lookup, because the handler runs on its own thread and context-var
    state does not follow it there.

    Binds ``host:port`` immediately (``port=0`` picks an ephemeral
    port, readable via :attr:`port` -- tests never race on a fixed
    one); request handling starts at :meth:`start`.
    """

    def __init__(
        self,
        registry: Optional[RegistrySource] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        health: HealthSource = None,
    ) -> None:
        if registry is None:
            recorder = get_recorder()
            registry = (
                recorder.registry if recorder.enabled else MetricsRegistry()
            )
        self._registry = registry
        self._health = resolve_health_provider(health)
        self._thread: Optional[threading.Thread] = None
        self._closed = False

        # Imported here, not at module level: http.server pulls in ssl
        # and email (several MB resident), and every ``import repro``
        # loads this module while few processes ever serve telemetry.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: object) -> None:
                pass  # telemetry must not spam the runner's stderr

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                server._handle(self)

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._closed:
            raise RuntimeError("telemetry server already closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-telemetry",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    # -- request handling --------------------------------------------------

    def _resolve_registry(self) -> MetricsRegistry:
        registry = self._registry
        if callable(registry):
            registry = registry()
        return registry if registry is not None else MetricsRegistry()

    def _handle(self, request: BaseHTTPRequestHandler) -> None:
        path = request.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = prometheus_text(self._resolve_registry()).encode(
                    "utf-8"
                )
                self._respond(request, 200, PROMETHEUS_CONTENT_TYPE, body)
            elif path == "/healthz":
                payload = self._health()
                if not isinstance(payload, dict):
                    payload = {"status": str(payload), "healthy": True}
                healthy = bool(payload.get("healthy", True))
                body = json.dumps(
                    json_ready(payload), sort_keys=True
                ).encode("utf-8")
                self._respond(
                    request,
                    200 if healthy else 503,
                    "application/json",
                    body,
                )
            else:
                body = json.dumps({"error": f"no such path: {path}"}).encode(
                    "utf-8"
                )
                self._respond(request, 404, "application/json", body)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to salvage
        except Exception as exc:  # noqa: BLE001 -- a scrape must not kill us
            body = json.dumps(
                {"status": "error", "error": str(exc)}
            ).encode("utf-8")
            try:
                self._respond(request, 500, "application/json", body)
            except OSError:
                pass

    @staticmethod
    def _respond(
        request: BaseHTTPRequestHandler,
        code: int,
        content_type: str,
        body: bytes,
    ) -> None:
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)


def serve_telemetry(
    registry: Optional[RegistrySource] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    health: HealthSource = None,
) -> TelemetryServer:
    """Start (and return) a :class:`TelemetryServer`; caller closes it.

    The one-liner API: ``server = serve_telemetry(port=9109)`` inside a
    :func:`~repro.obs.recorder.recording` block exposes the live run at
    ``server.url`` until ``server.close()``.
    """
    return TelemetryServer(
        registry, host=host, port=port, health=health
    ).start()


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "HealthSource",
    "TelemetryServer",
    "json_ready",
    "resolve_health_provider",
    "serve_telemetry",
]
