#!/bin/sh
# Guard: the span tracer, drop ledger, packet journeys and metastate ledger
# are scoped to a World's Observatory. Outside perfbench/, no C++ source may
# reach the ledgers through their static Get() (a shim kept only for
# perfbench), reset one (a new World starts empty), or hand a component a
# tracer of its own through a SetTracer/AttachTracer setter (components
# reach the run's tracer through the Observatory handle they already hold).
# Run from the repository root; prints every offending line and exits 1 if
# there is one.
hits=$(grep -rnE --include='*.cc' --include='*.h' \
    -e '(DropLedger|PacketJourney|MetastateLedger)::Get\(' \
    -e '\b(journey|drops|meta|ledger|led|dl|pj|jn)(\(\))?(\.|->)Reset\(' \
    -e '\b(Set|Attach)Tracer\(' \
    src bench tools tests examples |
  grep -vE '^src/obs/observatory\.cc:[0-9]+:(DropLedger|PacketJourney|MetastateLedger)& [A-Za-z]+::Get\(\) \{')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "recorders_are_run_scoped: reach the run's recorders through World::obs()"
  exit 1
fi
echo "recorders_are_run_scoped: OK"
