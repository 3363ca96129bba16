"""The package's one file writer."""

import csv
import io
import json
import os


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit(records, path, format, header=None):
    """Write records atomically; CSV floats carry 17 significant digits.

    The text goes to a temp file of its own in the target's directory, which
    is renamed over the target, or removed if anything fails.

    csv: records is a list of rows, header a list of column names.
    json: records is an object of native JSON values; anything else (an
    np.int64 or np.bool_, say) raises TypeError before a file is opened.
    """
    if format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if header:
            w.writerow(header)
        for row in records:
            w.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        text = json.dumps(records, indent=1, sort_keys=True) + "\n"
    head, name = os.path.split(str(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        # the target, not the temp file's random name
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if os.path.exists(tmp):  # gone once renamed
            os.remove(tmp)
