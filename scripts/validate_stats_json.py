#!/usr/bin/env python3
"""Validate a vtsim --stats-json document against ci/stats_schema.json.

Standard library only (runs on a bare CI image). Implements exactly the
subset of JSON Schema the checked-in schema uses — type, const,
required, properties, items, and local '#/definitions/...' $refs — plus
two semantic checks the schema cannot express: the batch must contain
at least one run, and every run must have verified functional results.

Usage: validate_stats_json.py <stats.json> [schema.json]
Exit status 0 when valid; 1 with one line per violation otherwise.
"""

import json
import pathlib
import sys

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "integer": int,
}


def _type_ok(value, expected):
    if expected == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if expected == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    cls = _TYPES[expected]
    if cls is dict or cls is list or cls is str:
        return isinstance(value, cls)
    return isinstance(value, bool)


def validate(value, schema, path, errors, root=None):
    if root is None:
        root = schema
    if "$ref" in schema:
        ref = schema["$ref"]
        prefix = "#/definitions/"
        if not ref.startswith(prefix):
            raise ValueError(f"unsupported $ref {ref!r} (only local "
                             "'#/definitions/...' refs are implemented)")
        schema = root["definitions"][ref[len(prefix):]]
    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return
    expected = schema.get("type")
    if expected is not None and not _type_ok(value, expected):
        errors.append(f"{path}: expected {expected}, got {type(value).__name__}")
        return
    for key in schema.get("required", []):
        if key not in value:
            errors.append(f"{path}: missing required key '{key}'")
    if "properties" in schema:
        for key, sub in schema["properties"].items():
            if key in value:
                validate(value[key], sub, f"{path}.{key}", errors, root)
    if "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], f"{path}[{i}]", errors, root)


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print("usage: validate_stats_json.py <stats.json> [schema.json]",
              file=sys.stderr)
        return 2
    stats_path = pathlib.Path(argv[1])
    schema_path = (
        pathlib.Path(argv[2])
        if len(argv) == 3
        else pathlib.Path(__file__).resolve().parent.parent
        / "ci" / "stats_schema.json"
    )
    document = json.loads(stats_path.read_text())
    schema = json.loads(schema_path.read_text())

    errors = []
    validate(document, schema, "$", errors)
    runs = document.get("runs")
    if isinstance(runs, list):
        if not runs:
            errors.append("$.runs: batch contains no runs")
        for i, run in enumerate(runs):
            if isinstance(run, dict) and run.get("verified") is not True:
                errors.append(f"$.runs[{i}]: run is not verified")

    service = document.get("service")
    if isinstance(service, dict):
        # A vtsimd document is written after a draining shutdown: every
        # completed job has a run entry and nothing is still in flight.
        jobs = service.get("jobs", {})
        if isinstance(runs, list) and jobs.get("completed") != len(runs):
            errors.append(
                f"$.service.jobs.completed: {jobs.get('completed')} "
                f"completed jobs but {len(runs)} run entries"
            )
        for key in ("running", "parked"):
            if jobs.get(key, 0) != 0:
                errors.append(
                    f"$.service.jobs.{key}: {jobs.get(key)} jobs still "
                    "in flight after shutdown"
                )

    for error in errors:
        print(error, file=sys.stderr)
    if errors:
        return 1
    summary = f"{stats_path}: valid {document['schema']}, " \
              f"{len(runs)} verified runs"
    if isinstance(service, dict):
        summary += (
            f", service: {service['jobs']['submitted']} submitted / "
            f"{service['preemptions']} preemptions / "
            f"{service['retries']} retries"
        )
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
