"""Fixture: uncatalogued span/event names and a dynamic name."""


def instrument(tracer, span, pick_name):
    bogus = tracer.span("stage.made_up", flows=1)
    dynamic = tracer.span(pick_name())
    tracer.event("assembler.bogus_event", rows=3)
    span.add_event("not.catalogued")
    record = span.tracer.span(name="shard.wrong")
    return bogus, dynamic, record
