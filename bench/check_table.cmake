# Run one bench's tables (no google-benchmark entry matches '^$') and
# compare its stdout with the checked-in golden table, or rewrite it:
#
#   cmake -DBENCH=<binary> -DTABLE=<golden .txt> [-DUPDATE=ON] \
#         -P check_table.cmake
#
# The bench's output is passed through, so `ctest -V` still shows the
# tables and a table.* case still fails on a "warn: " line. A nonzero
# exit fails, and so does any difference from the golden table, naming
# the first line that differs.

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BENCH} --benchmark_filter=^$
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE errors
                RESULT_VARIABLE status)
message("${actual}${errors}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
if(UPDATE)
    file(WRITE ${TABLE} "${actual}")
    return()
endif()

file(READ ${TABLE} expected)
if(actual STREQUAL expected)
    return()
endif()

# Walk both outputs a line at a time to the first difference. A side
# that has ended reads as "<end of output>", so this always finds one.
set(line 1)
while(TRUE)
    foreach(side expected actual)
        string(FIND "${${side}}" "\n" eol)
        if(${side}_ended)
            set(${side}_line "<end of output>")
        elseif(eol EQUAL -1)
            set(${side}_line "${${side}}")
            set(${side}_ended TRUE)
        else()
            string(SUBSTRING "${${side}}" 0 ${eol} ${side}_line)
            math(EXPR eol "${eol} + 1")
            string(SUBSTRING "${${side}}" ${eol} -1 ${side})
        endif()
    endforeach()
    if(NOT expected_line STREQUAL actual_line)
        break()
    endif()
    math(EXPR line "${line} + 1")
endwhile()
message(FATAL_ERROR
        "table differs from ${TABLE} at line ${line}\n"
        "  expected: ${expected_line}\n"
        "  actual:   ${actual_line}\n"
        "(rewrite the tables with: cmake --build <build> "
        "--target update_golden_tables)")
