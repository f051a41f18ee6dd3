"""Record the answers the benchmark's correctness gates compare against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json from the current source.  It was run once
at the baseline commit; rerun it only in a change that means to alter
oddflag's answers, and say so there.

* ``verify``: the status of every check of ``verify --n-max 6``.  Only the
  documented discrepancies may be flagged: ``closed-form-second-component``
  and ``dimension-formula`` at every rank, ``qbg-golden`` at n=2.
* ``qbg``: the sha256 of ``qbg --n 12 --format json``.
* ``query_mix``: the answer to every query the generator can make at rank
  12 (closed forms for each label and degree up to (3,3), lattice size,
  distributivity and shape for each label, and the Bruhat order, which
  decides containment of two neighborhoods), plus the answer digests of
  the default seed 1 and the held-out seed 2.
"""

import base64
import contextlib
import hashlib
import io
import json
import zlib

import oddflag
from oddflag import cli

import run


def pack_bits(data: bytes) -> str:
    return base64.b64encode(zlib.compress(data, 9)).decode()


def pack_indices(indices: list[int]) -> str:
    """Two little-endian bytes per index; see run.index_at."""
    return pack_bits(b"".join(i.to_bytes(2, "little") for i in indices))


def cli_output(args: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(args)
    return rc, buf.getvalue().encode()


def verify_reference() -> dict:
    rc, out = cli_output(run.CLI_ARGS["verify"])
    checks = [[c["name"], c["n"], c["status"]] for c in json.loads(out)["checks"]]
    n_max = int(run.CLI_ARGS["verify"][-1])
    documented = {("closed-form-second-component", n) for n in range(2, n_max + 1)}
    documented |= {("dimension-formula", n) for n in range(2, n_max + 1)}
    documented.add(("qbg-golden", 2))
    flagged = {(name, n) for name, n, status in checks if status == "flagged"}
    if rc != 0 or flagged != documented or any(s == "fail" for _, _, s in checks):
        raise SystemExit(f"verify is off its documented outcome: exit {rc}, flagged {sorted(flagged)}")
    return {"args": run.CLI_ARGS["verify"], "checks": checks}


def qbg_reference() -> dict:
    rc, out = cli_output(run.CLI_ARGS["qbg-build"])
    if rc != 0 or json.loads(out)["verdict"]["holds"] is not True:
        raise SystemExit("qbg does not report Property O")
    return {"args": run.CLI_ARGS["qbg-build"], "sha256": hashlib.sha256(out).hexdigest()}


def query_mix_reference() -> dict:
    n, dmax = run.RANK, run.DEGREE_MAX
    labels = run.label_strings(n)
    parsed = [oddflag.parse_label(w, n) for w in labels]
    values: list[str] = []
    cells: list[int] = []
    for w in parsed:
        for d1 in range(dmax + 1):
            for d2 in range(dmax + 1):
                text = str(oddflag.gamma_closed_form(w, oddflag.Degree(d1, d2)))
                if text not in values:
                    values.append(text)
                cells.append(values.index(text))
    lattice_values: list[list] = []
    lattice: list[int] = []
    for w in parsed:
        lat = oddflag.build_cn_lattice(w)
        row = [lat.size, oddflag.is_distributive(lat), oddflag.classify_shape(lat)]
        if row not in lattice_values:
            lattice_values.append(row)
        lattice.append(lattice_values.index(row))
    bits = bytearray((len(parsed) ** 2 + 7) // 8)
    for i, u in enumerate(parsed):
        for j, v in enumerate(parsed):
            if oddflag.bruhat_leq(u, v):
                k = i * len(parsed) + j
                bits[k >> 3] |= 1 << (k & 7)
    out = {
        "n": n,
        "labels": labels,
        "closed_form_values": values,
        "closed_form": pack_indices(cells),
        "lattice_values": lattice_values,
        "lattice": pack_indices(lattice),
        "bruhat_leq": pack_bits(bytes(bits)),
        "answer_sha256": {},
    }
    # The shipped seeds are answered by the library itself, which also
    # checks the table lookups (containment goes through the Bruhat bits).
    qref = run.QueryReference({"query_mix": out})
    for seed in (1, 2):
        queries = run.make_queries(seed)
        answers = [library_answer(q) for q in queries]
        if answers != [qref.answer(q) for q in queries]:
            raise SystemExit(f"reference tables disagree with the library on seed {seed}")
        out["answer_sha256"][str(seed)] = run.answers_digest(answers)
    return out


def library_answer(q: list):
    """Answer one query the way perfbench/child.py formats it."""
    n = run.RANK
    if q[0] == "cf":
        return str(oddflag.gamma_closed_form(oddflag.parse_label(q[1], n), oddflag.Degree(*q[2:4])))
    if q[0] == "lat":
        lat = oddflag.build_cn_lattice(oddflag.parse_label(q[1], n))
        return [lat.size, oddflag.is_distributive(lat), oddflag.classify_shape(lat)]
    lhs = oddflag.gamma_closed_form(oddflag.parse_label(q[1], n), oddflag.Degree(*q[2:4]))
    rhs = oddflag.gamma_closed_form(oddflag.parse_label(q[4], n), oddflag.Degree(*q[5:7]))
    return oddflag.union_leq(lhs, rhs)


def main() -> None:
    reference = {
        "verify": verify_reference(),
        "qbg": qbg_reference(),
        "query_mix": query_mix_reference(),
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
