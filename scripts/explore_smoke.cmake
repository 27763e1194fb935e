# Explore reproducer smoke test: drive the real explore_main binary through
# the full artifact round trip on the sync positive control and pin its exit
# codes. Invoked by CTest as
#   cmake -DEXPLORE_BIN=<explore_main> -DWORK_DIR=<build dir>
#         -P explore_smoke.cmake
#
# 1. explore sync_buggy seed 6 at defaults -> exit 1, writes a shrunk
#    reproducer (<= 5 perturbations, the positive-control bound)
# 2. --replay of the saved artifact          -> exit 0, "violation reproduced"
# 3. --replay of a tampered copy (perturb    -> exit 2, "did NOT reproduce"
#    lines stripped)
if(NOT EXPLORE_BIN OR NOT WORK_DIR)
  message(FATAL_ERROR "explore_smoke.cmake needs -DEXPLORE_BIN=... and -DWORK_DIR=...")
endif()

set(repro ${WORK_DIR}/repro_sync_smoke.txt)
file(REMOVE ${repro})

execute_process(
  COMMAND ${EXPLORE_BIN} --workload=sync_buggy --seed=6 --repro-out=${repro}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR
    "explore of sync_buggy seed 6 expected exit 1 (violations found), got "
    "${rc}:\n${out}\n${err}")
endif()
if(NOT EXISTS ${repro})
  message(FATAL_ERROR "--repro-out did not write ${repro}:\n${out}")
endif()
if(NOT out MATCHES "shrunk to [1-5] perturbations")
  message(FATAL_ERROR
    "positive control did not shrink to <= 5 perturbations:\n${out}")
endif()

execute_process(
  COMMAND ${EXPLORE_BIN} --replay=${repro}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay of ${repro} expected exit 0, got ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "violation reproduced")
  message(FATAL_ERROR "replay did not report the violation:\n${out}")
endif()

# Tamper: strip the perturb directives. The artifact is 1-minimal, so the
# recorded violation cannot survive without them.
set(tampered ${WORK_DIR}/repro_sync_tampered.txt)
file(STRINGS ${repro} lines)
set(kept "")
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^perturb ")
    string(APPEND kept "${line}\n")
  endif()
endforeach()
file(WRITE ${tampered} "${kept}")

execute_process(
  COMMAND ${EXPLORE_BIN} --replay=${tampered}
  WORKING_DIRECTORY ${WORK_DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR
    "tampered replay expected exit 2 (did not reproduce), got ${rc}:\n${out}\n${err}")
endif()
if(NOT out MATCHES "did NOT reproduce")
  message(FATAL_ERROR "tampered replay did not report the miss:\n${out}")
endif()

message(STATUS
  "explore smoke OK: explore exit 1 with shrunk artifact, replay exit 0, "
  "tampered replay exit 2")
