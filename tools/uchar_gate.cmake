# The zero-tolerance cycle gate as one ctest entry: run the full
# characterization suite, then diff it against the committed baseline.
#
#   cmake -DUCHARACTERIZE=<exe> -DUCHAR_COMPARE=<exe> \
#         -DBASELINE=UCHAR_baseline.json -DOUT=<report.json> \
#         -P uchar_gate.cmake

execute_process(COMMAND ${UCHARACTERIZE} --json --jobs 2 --out ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ucharacterize exited with ${rc}")
endif()

execute_process(COMMAND ${UCHAR_COMPARE} ${BASELINE} ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${BASELINE} (see above)")
endif()
