#!/bin/sh
# Guard: the drop ledger, packet journeys and metastate ledger are scoped to
# a World's Observatory. Outside perfbench/, no C++ source may reach them
# through their static Get() (a shim kept only for perfbench) or reset one
# (a new World starts empty). Run from the repository root; prints every
# offending line and exits 1 if there is one.
hits=$(grep -rnE --include='*.cc' --include='*.h' \
    -e '(DropLedger|PacketJourney|MetastateLedger)::Get\(' \
    -e '\b(journey|drops|meta|ledger|led|dl|pj|jn)(\(\))?(\.|->)Reset\(' \
    src bench tools tests examples |
  grep -vE '^src/obs/observatory\.cc:[0-9]+:(DropLedger|PacketJourney|MetastateLedger)& [A-Za-z]+::Get\(\) \{')
if [ -n "$hits" ]; then
  echo "$hits"
  echo "recorders_are_run_scoped: reach the run's recorders through World::obs()"
  exit 1
fi
echo "recorders_are_run_scoped: OK"
