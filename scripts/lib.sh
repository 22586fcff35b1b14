# Shared bootstrap for the drill scripts that run a `cable` server.
#
# Sourcing this file makes a scratch directory `$work`, and installs an
# EXIT trap that kills any server still running and removes `$work`.
#
#   start_server ANNOUNCE_FILE CMD...
#       Runs CMD in the background with its stdout in ANNOUNCE_FILE,
#       waits up to 5 s for the `serving http://ADDR/...` line, and sets
#       `addr` (host:port) and `server_pid`. Environment for CMD goes on
#       the call: `CABLE_OBS=1 start_server "$work/announce" "$CABLE" serve ...`.
#   stop_server
#       Kills the server and waits for it.

work=$(mktemp -d)
server_pid=""
addr=""

cleanup() {
  [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

start_server() {
  local announce=$1
  shift
  "$@" > "$announce" 2> /dev/null &
  server_pid=$!
  addr=""
  for _ in $(seq 1 50); do
    addr=$(sed -n 's|^serving http://\([^/]*\)/.*|\1|p' "$announce")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "serve never announced its address"; exit 1; }
}

stop_server() {
  kill "$server_pid"
  wait "$server_pid" 2>/dev/null || true
  server_pid=""
}
