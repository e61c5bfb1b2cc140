#!/usr/bin/env python3
"""Validate the framing of a vtsim checkpoint file.

Standard library only (runs on a bare CI image). Checks the header
(magic "vtsimCKP", version 4, payload size matching the file), then
walks the top-level section records — tag[4] + u32 length + body — to
the exact end of the payload, and requires the sections a Gpu always
writes ("conf", "gpux", "gmem", "horz") to be present. Section bodies
are component internals and are not interpreted here; the simulator's
own Deserializer asserts per-component byte-exactness on restore.

Usage: validate_checkpoint.py <file.ckpt> [--dump]
Exit status 0 when valid; 1 with one line per violation otherwise.
--dump additionally prints one line per top-level section.
"""

import pathlib
import struct
import sys

MAGIC = b"vtsimCKP"
VERSION = 4
HEADER_SIZE = len(MAGIC) + 4 + 8
REQUIRED_SECTIONS = ("conf", "gpux", "gmem", "horz")


def walk_sections(payload, errors):
    """Return [(tag, offset, length)] for the top-level records."""
    sections = []
    off = 0
    while off < len(payload):
        if off + 8 > len(payload):
            errors.append(
                f"payload[{off}]: truncated section header "
                f"({len(payload) - off} bytes left, need 8)"
            )
            break
        tag = payload[off:off + 4]
        if not all(0x20 <= c < 0x7F for c in tag):
            errors.append(f"payload[{off}]: non-printable section tag {tag!r}")
            break
        (length,) = struct.unpack_from("<I", payload, off + 4)
        if off + 8 + length > len(payload):
            errors.append(
                f"payload[{off}]: section '{tag.decode()}' length {length} "
                f"overruns the payload"
            )
            break
        sections.append((tag.decode(), off, length))
        off += 8 + length
    return sections


def main(argv):
    args = [a for a in argv[1:] if a != "--dump"]
    dump = "--dump" in argv[1:]
    if len(args) != 1:
        print("usage: validate_checkpoint.py <file.ckpt> [--dump]",
              file=sys.stderr)
        return 2
    path = pathlib.Path(args[0])
    data = path.read_bytes()

    errors = []
    if len(data) < HEADER_SIZE:
        errors.append(f"file is {len(data)} bytes; header alone is "
                      f"{HEADER_SIZE}")
    else:
        if data[:8] != MAGIC:
            errors.append(f"bad magic {data[:8]!r}, expected {MAGIC!r}")
        (version,) = struct.unpack_from("<I", data, 8)
        if version != VERSION:
            errors.append(f"unsupported version {version}, expected "
                          f"{VERSION}")
        (payload_size,) = struct.unpack_from("<Q", data, 12)
        if HEADER_SIZE + payload_size != len(data):
            errors.append(
                f"payload size {payload_size} + header {HEADER_SIZE} != "
                f"file size {len(data)}"
            )

    sections = []
    if not errors:
        sections = walk_sections(data[HEADER_SIZE:], errors)
        tags = [tag for tag, _, _ in sections]
        for required in REQUIRED_SECTIONS:
            if required not in tags:
                errors.append(f"missing required section '{required}'")

    if dump:
        for tag, off, length in sections:
            print(f"  {tag}  offset {HEADER_SIZE + off:8d}  "
                  f"{length:8d} bytes")

    for error in errors:
        print(f"{path}: {error}", file=sys.stderr)
    if errors:
        return 1
    print(f"{path}: valid vtsim-ckpt-v{VERSION}, {len(sections)} "
          f"sections, {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
