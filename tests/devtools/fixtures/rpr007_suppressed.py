"""Fixture: catalog violations silenced by noqa comments."""


def instrument(tracer, span, pick_name):
    bogus = tracer.span("stage.made_up", flows=1)  # repro: noqa[RPR007]
    dynamic = tracer.span(pick_name())  # repro: noqa[RPR007]
    tracer.event("assembler.bogus_event", rows=3)  # repro: noqa[RPR007]
    span.add_event("not.catalogued")  # repro: noqa
    record = span.tracer.span(name="shard.wrong")  # repro: noqa[RPR007]
    return bogus, dynamic, record
