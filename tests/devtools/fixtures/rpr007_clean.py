"""Fixture: spans and events built strictly from the catalog."""


def instrument(tracer, span):
    with tracer.span("session.interval", interval=4) as interval:
        with tracer.span("stage.mining", flows=100):
            tracer.event("assembler.watermark", watermark=900.0)
        interval.add_event("assembler.backpressure", interval=4)
    ranking = tracer.span("fleet.rank", profile="balanced")
    return ranking
