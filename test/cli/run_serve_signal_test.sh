#!/bin/sh
# An idle kregret_serve must stop cleanly on SIGTERM: start it on a fresh
# Unix socket, wait until it answers ping, send SIGTERM, and require exit
# status 0 within 2 s. Invoked by dune (see ./dune) with the built server
# executable as $1.
set -eu

SERVE=$1
fail() { echo "serve-signal-test FAILURE: $*" >&2; exit 1; }

# sun_path is ~108 bytes: keep the socket under /tmp, not the sandbox
sock=/tmp/kregret-sigterm-$$.sock
rm -f "$sock"
trap 'rm -f "$sock"' EXIT

"$SERVE" --listen "unix:$sock" --quiet &
pid=$!

tries=0
until "$SERVE" --client --connect "unix:$sock" --timeout 2 ping > /dev/null 2>&1; do
  tries=$((tries + 1))
  if [ "$tries" -ge 200 ]; then
    kill -KILL "$pid" 2> /dev/null || true
    fail "server never answered ping"
  fi
  sleep 0.05
done

kill -TERM "$pid"
# watchdog: a server that ignores SIGTERM is killed after 2 s, which shows
# up below as a non-zero exit status
( sleep 2; kill -KILL "$pid" ) > /dev/null 2>&1 &
watchdog=$!
if wait "$pid"; then status=0; else status=$?; fi
kill "$watchdog" 2> /dev/null || true
wait "$watchdog" 2> /dev/null || true

[ "$status" -eq 0 ] ||
  fail "idle server did not exit 0 within 2 s of SIGTERM (status $status)"
[ ! -e "$sock" ] || fail "socket file $sock left behind"
echo "serve-signal-test: idle server exited 0 on SIGTERM"
