# ctest driver for hydride_inspect_explain: compile a real pipeline
# with the journal enabled, validate the stream with the strict
# checker, then prove `hydride-inspect explain --all` reconstructs a
# complete decision ledger for every compiled window and `top` can
# rank them. A second run of the example must then show no drift
# under `hydride-inspect diff`: compiler output is a function of its
# inputs, not of the clock. The steps share one test so the journals
# inspected are the journals just produced.
#
# Expects: EXAMPLE, INSPECT, PYTHON, CHECKER, JOURNAL.
foreach(journal ${JOURNAL} ${JOURNAL}.rerun)
    file(REMOVE ${journal})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env HYDRIDE_JOURNAL=${journal} ${EXAMPLE}
        RESULT_VARIABLE rc
        OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "example failed with status ${rc}")
    endif()
    if(NOT EXISTS ${journal})
        message(FATAL_ERROR "HYDRIDE_JOURNAL=${journal} wrote no journal")
    endif()
endforeach()

execute_process(
    COMMAND ${PYTHON} ${CHECKER} ${JOURNAL}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check_journal.py rejected ${JOURNAL} (status ${rc})")
endif()

execute_process(
    COMMAND ${INSPECT} explain --all --journal ${JOURNAL}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "hydride-inspect explain --all failed (status ${rc}): "
            "a compiled window is missing from the journal or its "
            "ledger is incomplete")
endif()

execute_process(
    COMMAND ${INSPECT} top --by=time --journal ${JOURNAL}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hydride-inspect top failed (status ${rc})")
endif()

execute_process(
    COMMAND ${INSPECT} diff ${JOURNAL} ${JOURNAL}.rerun
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hydride-inspect diff found drift between two "
                        "runs of the same example (status ${rc})")
endif()

# The diff must also see a fate that leaves rung, cost and code alone:
# a search cut by the deadline instead of exhausted.
file(READ ${JOURNAL} text)
string(REPLACE "\"note\":\"search exhausted\"" "\"note\":\"timeout\""
       cut "${text}")
file(WRITE ${JOURNAL}.cut "${cut}")
execute_process(
    COMMAND ${INSPECT} diff ${JOURNAL} ${JOURNAL}.cut
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "hydride-inspect diff missed a timeout note "
                        "(status ${rc})")
endif()
