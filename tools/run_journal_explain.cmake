# ctest driver for hydride_inspect_explain: compile a real pipeline
# with the journal enabled, validate the stream with the strict
# checker, then prove `hydride-inspect explain --all` reconstructs a
# complete decision ledger for every compiled window and `top` can
# rank them. The steps share one test so the journal inspected is the
# journal just produced.
#
# Expects: EXAMPLE, INSPECT, PYTHON, CHECKER, JOURNAL.
file(REMOVE ${JOURNAL})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env HYDRIDE_JOURNAL=${JOURNAL} ${EXAMPLE}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "example failed with status ${rc}")
endif()
if(NOT EXISTS ${JOURNAL})
    message(FATAL_ERROR "HYDRIDE_JOURNAL=${JOURNAL} wrote no journal")
endif()

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
