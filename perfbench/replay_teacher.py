"""An external teacher that replays stored boxes over the line-JSON protocol.

Usage: python3 replay_teacher.py <boxes_dir>

On ``{"cmd": "init", "video": <id>, ...}`` it loads ``<boxes_dir>/<id>.csv``
(one ``x,y,w,h`` row per frame, row 0 being the start box) and replies
``{"ok": true}``. Each ``{"cmd": "predict", "frame": <path>}`` gets the next
stored row as ``{"box": [x, y, w, h]}``; a missing frame file or a finished
trace gets ``{"error": ...}``. It imports nothing beyond the standard library,
so a session costs what a light external tracker costs.
"""

import json
import os
import sys


def main() -> int:
    boxes_dir = sys.argv[1]
    boxes = []
    t = 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("cmd") == "init":
            with open(os.path.join(boxes_dir, msg["video"] + ".csv")) as fh:
                boxes = [[float(v) for v in row.split(",")] for row in fh if row.strip()]
            t = 0
            reply = {"ok": True}
        elif msg.get("cmd") == "predict":
            t += 1
            if t >= len(boxes):
                reply = {"error": "trace exhausted at frame %d" % t}
            elif not os.path.isfile(msg.get("frame", "")):
                reply = {"error": "no frame file %r" % msg.get("frame")}
            else:
                reply = {"box": boxes[t]}
        else:
            reply = {"error": "unknown command %r" % msg.get("cmd")}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
